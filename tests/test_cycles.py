import time

import pytest

from domlab import Cycle, SolverTimeout, gnp_random, mod3_cycles, named_graph, random_cubic
from domlab.cycles import all_simple_cycles

from _oracles import cycle_from_sequence, cycles_by_permutation


def test_cycle_canonical_form():
    c = cycle_from_sequence((2, 1, 0))
    assert c.vertices == (0, 1, 2)
    c = cycle_from_sequence((3, 5, 0, 4))
    assert c.vertices[0] == 0 and c.vertices[1] < c.vertices[-1]
    with pytest.raises(ValueError):
        Cycle((1, 0, 2))  # not canonical
    with pytest.raises(ValueError, match="a cycle needs at least 3 vertices"):
        Cycle((0, 1))
    with pytest.raises(ValueError, match="cycle vertices must be distinct"):
        Cycle((0, 1, 1))


def test_enumeration_matches_permutation_oracle():
    samples = [named_graph(n) for n in ("k4", "c5", "prism", "theta(1,2,2)")]
    samples += [gnp_random(7, 0.5, seed) for seed in (1, 2)]
    samples += [gnp_random(8, 0.35, seed) for seed in (3, 4)]
    for g in samples:
        mine = {c.vertices for c in all_simple_cycles(g)}
        assert mine == cycles_by_permutation(g)


def test_mod3_fixtures():
    k4 = mod3_cycles(named_graph("k4"))
    assert len(k4) == 4
    assert all(len(c) == 3 for c in k4)
    assert mod3_cycles(named_graph("c4")) == ()
    c6 = mod3_cycles(named_graph("c6"))
    assert [c.vertices for c in c6] == [(0, 1, 2, 3, 4, 5)]
    assert len(all_simple_cycles(named_graph("k4"))) == 7  # 4 triangles + 3 squares


def test_mod3_ordering():
    pete = mod3_cycles(named_graph("petersen"))
    assert list(pete) == sorted(pete, key=lambda c: (len(c), c.vertices))
    lengths = [len(c) for c in pete]
    assert lengths.count(6) == 10 and lengths.count(9) == 20


def test_cycle_listing_stops_at_its_deadline():
    big = random_cubic(60, seed=1)  # far too many cycles to list
    passed = time.monotonic() - 1
    with pytest.raises(SolverTimeout, match="^cycle listing exceeded its budget$"):
        all_simple_cycles(big, deadline=passed)
    with pytest.raises(SolverTimeout, match="^cycle listing exceeded its budget$"):
        mod3_cycles(big, deadline=passed)
    # a listing that ends before the first deadline read is unaffected
    k4 = named_graph("k4")
    assert mod3_cycles(k4, deadline=passed) == mod3_cycles(k4)


def test_first_mod3_cycle():
    # the listing's first entry is the shortest 0-mod-3 cycle
    assert len(mod3_cycles(named_graph("k4"))[0]) == 3
    g = named_graph("petersen")
    pete = mod3_cycles(g)[0]
    assert len(pete) == 6  # girth 5, nothing shorter qualifies
    v = pete.vertices
    assert all(g.has_edge(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))


def test_petersen_girth_by_enumeration():
    assert min(len(c) for c in all_simple_cycles(named_graph("petersen"))) == 5
