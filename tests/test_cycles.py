import pickle
import time
from itertools import combinations

import pytest

from domlab import Cycle, Graph, SolverTimeout, cycles, gnp_random, mod3_cycles, named_graph, random_cubic
from domlab.cycles import all_simple_cycles
from domlab.graphs import edge_key

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


@pytest.mark.parametrize("n, listed, read", [(24, 4_210, 33), (28, 16_416, 132)])
def test_cycle_listing_reads_its_deadline_every_1024th_step(monkeypatch, n, listed, read):
    # one read at every 1,024th path the walk extends, that is every
    # 1,024th path with a closing neighbour of its start still off it
    reads = []
    check = cycles.check_deadline

    def counted_read(deadline, phase):
        reads.append(phase)
        check(deadline, phase)

    monkeypatch.setattr(cycles, "check_deadline", counted_read)
    assert len(all_simple_cycles(random_cubic(n, 1), deadline=time.monotonic() + 3600)) == listed
    assert reads == ["cycle listing"] * read


def edge_masks_by_rank(n: int) -> dict[tuple[int, int], int]:
    """Bit of each pair u < w: its rank in colex order, by w and then u."""
    pairs = sorted(combinations(range(n), 2), key=lambda e: (e[1], e[0]))
    return {e: 1 << rank for rank, e in enumerate(pairs)}


def test_cycle_masks_match_their_vertex_and_edge_sets():
    k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
    listings = [all_simple_cycles(g) for g in (k6, gnp_random(8, 0.5, 1), gnp_random(8, 0.5, 2))]
    bit = edge_masks_by_rank(8)
    for listing in listings:
        edge_sets = []
        for c in listing:
            vs = c.vertices
            edges = {edge_key(vs[i - 1], vs[i]) for i in range(len(vs))}
            assert c.masks == (sum(1 << v for v in set(vs)), sum(bit[e] for e in edges))
            edge_sets.append((set(vs), edges))
        for (a, (va, ea)), (b, (vb, eb)) in combinations(zip(listing, edge_sets), 2):
            assert (a.masks[0] & b.masks[0]).bit_count() == len(va & vb)
            assert (a.masks[1] & b.masks[1]).bit_count() == len(ea & eb)
    assert sum(map(len, listings)) > 197


def test_cycle_masks_leave_equality_hash_and_repr_alone():
    read, fresh = Cycle((0, 1, 3, 2)), Cycle((0, 1, 3, 2))
    assert read.masks == (0b1111, 1 << 0 | 1 << 4 | 1 << 5 | 1 << 1)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    copy = pickle.loads(pickle.dumps(read))
    assert copy == fresh and copy.masks == read.masks
