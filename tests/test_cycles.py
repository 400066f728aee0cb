import time

import pytest

from domlab import (
    Cycle,
    Graph,
    SolverTimeout,
    ear_decomposition,
    fan_paths,
    gnp_random,
    mod3_cycles,
    named_graph,
    path_with_residue,
    random_cubic,
)
from domlab.cycles import all_simple_cycles, is_two_connected
from domlab.graphs import edge_key

from _oracles import cycles_by_permutation, paths_by_enumeration


def test_cycle_canonical_form():
    c = Cycle.from_sequence((2, 1, 0))
    assert c.vertices == (0, 1, 2)
    c = Cycle.from_sequence((3, 5, 0, 4))
    assert c.vertices[0] == 0 and c.vertices[1] < c.vertices[-1]
    with pytest.raises(ValueError):
        Cycle((1, 0, 2))  # not canonical
    with pytest.raises(ValueError):
        Cycle((0, 1))  # too short


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
    with pytest.raises(SolverTimeout):
        all_simple_cycles(big, deadline=passed)
    with pytest.raises(SolverTimeout):
        mod3_cycles(big, deadline=passed)
    # a listing that ends before the first deadline read is unaffected
    k4 = named_graph("k4")
    assert mod3_cycles(k4, deadline=passed) == mod3_cycles(k4)


def test_first_mod3_cycle():
    # the listing's first entry is the shortest 0-mod-3 cycle
    assert len(mod3_cycles(named_graph("k4"))[0]) == 3
    pete = mod3_cycles(named_graph("petersen"))[0]
    assert len(pete) == 6  # girth 5, nothing shorter qualifies
    assert pete.is_cycle_of(named_graph("petersen"))


def test_petersen_girth_by_enumeration():
    assert min(len(c) for c in all_simple_cycles(named_graph("petersen"))) == 5


def test_path_with_residue_on_c4():
    c4 = named_graph("c4")
    assert path_with_residue(c4, 0, 2, 2).path == (0, 1, 2)
    assert path_with_residue(c4, 0, 1, 0).path == (0, 3, 2, 1)
    outcome = path_with_residue(c4, 0, 2, 0)
    assert outcome.path is None and outcome.complete
    with pytest.raises(ValueError):
        path_with_residue(c4, 0, 0, 1)
    with pytest.raises(ValueError):
        path_with_residue(c4, 0, 1, 1, budget=0)


def test_path_with_residue_budget():
    # no 0-mod-3 path exists in C4, but the tiny budget gives up first
    outcome = path_with_residue(named_graph("c4"), 0, 2, 0, budget=1)
    assert not outcome.complete and outcome.path is None


def test_path_with_residue_matches_enumeration():
    for seed in (1, 2, 3):
        g = gnp_random(8, 0.4, seed=800 + seed)
        for u, v in ((0, 1), (0, 7), (2, 5)):
            all_paths = paths_by_enumeration(g, u, v)
            for r in range(3):
                hit = path_with_residue(g, u, v, r)
                assert hit.complete
                # path length counts edges: len(p) - 1
                exists = any((len(p) - 1) % 3 == r for p in all_paths)
                assert (hit.path is not None) == exists
                if hit.path:
                    assert (len(hit.path) - 1) % 3 == r


def test_fan_paths():
    c5 = named_graph("c5")
    pair = fan_paths(c5, 0, 2, 3)
    assert pair is not None
    p1, p2 = pair
    assert p1[0] == p2[0] == 0 and p1[-1] == 2 and p2[-1] == 3
    assert not (set(p1) & set(p2)) - {0}
    assert fan_paths(named_graph("k13"), 1, 2, 3) is None  # center is shared
    pair = fan_paths(named_graph("k4"), 0, 1, 2)
    assert pair == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        fan_paths(c5, 0, 0, 1)


def test_is_two_connected():
    assert is_two_connected(named_graph("c5"))
    assert is_two_connected(named_graph("k4"))
    assert not is_two_connected(named_graph("p4"))
    assert not is_two_connected(named_graph("k13"))


def test_ear_decomposition_fixtures():
    dec = ear_decomposition(named_graph("c5"))
    assert len(dec.initial) == 5 and not dec.ears
    dec = ear_decomposition(named_graph("theta(1,2,2)"))
    assert len(dec.ears) == 1
    dec = ear_decomposition(named_graph("k4"))
    assert len(dec.ears) == 2  # m - n ears beyond the initial cycle
    with pytest.raises(ValueError):
        ear_decomposition(named_graph("p4"))


def replay(dec, g: Graph) -> bool:
    verts = set(dec.initial.vertices)
    edges = set(dec.initial.edges())
    for ear in dec.ears:
        assert ear[0] in verts and ear[-1] in verts and ear[0] != ear[-1]
        for inner in ear[1:-1]:
            assert inner not in verts
        verts.update(ear)
        edges.update(edge_key(ear[i], ear[i + 1]) for i in range(len(ear) - 1))
    return verts == set(range(g.n)) and edges == set(g.edges())


def test_ear_decomposition_replay():
    for name in ("k4", "c5", "prism", "petersen", "theta(1,2,2)", "theta(2,2,2)"):
        g = named_graph(name)
        assert replay(ear_decomposition(g), g)
    for seed in range(8):
        g = gnp_random(9, 0.5, seed=900 + seed)
        if is_two_connected(g):
            assert replay(ear_decomposition(g), g)
