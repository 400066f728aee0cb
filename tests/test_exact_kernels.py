"""Differential tests of the exact kernels against independent oracles.

Connectivity is checked against networkx, the all-pairs flow and Even's
source loop it replaced, and on cubic graphs the cycle-space path also
against the flows forced on the same graph; gamma_exact and idom_exact,
the latter also started from gamma's certificate, must return the sizes
of the packing-bound solvers they replaced, of brute force and of the
dynamic program over a vertex order, with sets that dominate (and, for
i, are independent); the program's count of minimum dominating sets must
equal the enumeration's; the branch lists handed down the gamma search must
equal a rescan at every node; delete_edges must return the graph, or
raise the error, of the full rebuild it replaced, with the same rows and
N[v] masks, and a graph the validating constructor accepts.
"""

import random
import re
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    Graph,
    delete_edges,
    domination,
    gamma_bruteforce,
    gamma_exact,
    gnp_random,
    graphs,
    idom_exact,
    is_dominating,
    named_graph,
    parse_graph6,
    random_cubic,
    vertex_connectivity,
)
from domlab.domination import _lower_bound, _search_tables, enumerate_min_dsets, induced_edge_count
from domlab.graphs import _disjoint_paths, _flow_connectivity, _split_network, is_cubic

from _oracles import (
    delete_edges_by_full_rebuild,
    domination_by_frontier_dp,
    gamma_branch_rescanned,
    gamma_exact_packing,
    idom_by_enumeration,
    idom_exact_packing,
    useful_candidates,
    vertex_connectivity_all_pairs,
    vertex_connectivity_even,
)

edge_prob = st.sampled_from([0.15, 0.3, 0.45, 0.6, 0.8])
seeds = st.integers(min_value=0, max_value=10**6)


def nx_connectivity(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.node_connectivity(h)


@pytest.mark.parametrize("n", range(1, 13))
@settings(max_examples=15)
@given(p=edge_prob, seed=seeds)
def test_connectivity_on_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    kappa = vertex_connectivity(g)
    assert kappa == nx_connectivity(g)
    assert kappa == vertex_connectivity_all_pairs(g)
    assert kappa == vertex_connectivity_even(g)


def test_connectivity_needs_the_neighbor_pairs():
    # every vertex has degree >= 4 and vertex 0, the least of minimum degree,
    # lies in every minimum separator: its own flows read 4, kappa is 3
    g = parse_graph6("Fz][w")
    network = _split_network(g)
    alone = min(_disjoint_paths(network, 0, t, 4) for t in range(1, g.n) if not g.has_edge(0, t))
    assert min(len(row) for row in g.adj) == g.degree(0) == alone == 4
    assert vertex_connectivity(g) == 3 == nx_connectivity(g)
    assert vertex_connectivity_even(g) == vertex_connectivity_all_pairs(g) == 3


def test_connectivity_runs_esfahanian_hakimi_flow_count(monkeypatch):
    # n - delta - 1 flows from the least vertex of minimum degree, and at
    # most C(delta, 2) between its neighbors; a cubic graph runs none
    flows = []

    def counted(network, s, t, cap):
        flows.append((s, t))
        return _disjoint_paths(network, s, t, cap)

    monkeypatch.setattr(graphs, "_disjoint_paths", counted)
    g = random_cubic(40, 1)
    assert vertex_connectivity(g) == 3
    assert flows == []
    assert _flow_connectivity(g) == 3
    assert 40 - 3 - 1 <= len(flows) <= 40 - 3 - 1 + 3


@settings(max_examples=150)
@given(n=st.integers(min_value=1, max_value=12), p=edge_prob, seed=seeds, data=st.data())
def test_delete_edges_matches_full_rebuild(n, p, seed, data):
    g = gnp_random(n, p, seed)
    both_ways = g.edges() + [(v, u) for u, v in g.edges()]
    cut = data.draw(st.lists(st.sampled_from(both_ways), max_size=g.m + 1)) if g.m else []
    if data.draw(st.booleans()):  # a pair that may be no edge or out of range
        cut.append(data.draw(st.tuples(st.integers(-1, n), st.integers(-1, n))))
    try:
        expected = delete_edges_by_full_rebuild(g, cut)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            delete_edges(g, cut)
    else:
        smaller = delete_edges(g, cut)
        assert (smaller.n, smaller.adj, smaller.masks) == (expected.n, expected.adj, expected.masks)
        assert smaller == expected == Graph(smaller.n, smaller.adj) and smaller.search is None


@pytest.mark.parametrize("n", [20, 40])
@settings(max_examples=5)
@given(seed=seeds)
def test_connectivity_on_random_cubic(n, seed):
    g = random_cubic(n, seed)
    kappa = vertex_connectivity(g)
    assert kappa == nx_connectivity(g)
    assert kappa == vertex_connectivity_all_pairs(g)


def test_connectivity_when_the_first_sources_form_the_separator():
    # 0 and 1 see every vertex and separate the edges 2-3 and 4-5: minimum
    # degree 3, kappa 2, and only source 2 has a non-neighbor
    edges = [(u, v) for u in (0, 1) for v in range(6) if u < v]
    edges += [(2, 3), (4, 5)]
    g = Graph.from_edges(6, edges)
    assert vertex_connectivity(g) == 2 == nx_connectivity(g)


@settings(max_examples=60)
@given(
    k=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=1, max_value=5),
    b=st.integers(min_value=1, max_value=5),
    p=edge_prob,
    seed=seeds,
)
def test_connectivity_with_a_separator_on_the_first_sources(k, a, b, p, seed):
    # vertices 0..k-1 see every vertex; the two sides meet only through them
    rng = random.Random(seed)
    n = k + a + b
    edges = [(u, v) for u in range(k) for v in range(u + 1, n)]
    for side in (range(k, k + a), range(k + a, n)):
        edges += [(u, v) for u, v in combinations(side, 2) if rng.random() < p]
    g = Graph.from_edges(n, edges)
    kappa = vertex_connectivity(g)
    assert kappa == nx_connectivity(g)
    assert kappa == vertex_connectivity_all_pairs(g)


def assert_matches_packing_solvers(g):
    # the packing-bound solvers branch in (degree, id) order, so only their
    # sizes must agree; the sets are checked for what they claim
    gamma, idom = gamma_exact(g), idom_exact(g)
    assert gamma.size == gamma_exact_packing(g).size
    assert idom.size == idom_exact_packing(g).size
    assert is_dominating(g, gamma.members)
    assert is_dominating(g, idom.members) and induced_edge_count(g, idom.members) == 0


@pytest.mark.parametrize("n", range(15))
@settings(max_examples=10)
@given(p=edge_prob, seed=seeds)
def test_exact_members_match_packing_solvers_on_gnp(n, p, seed):
    assert_matches_packing_solvers(gnp_random(n, p, seed))


@pytest.mark.parametrize("n", [10, 20, 30, 40])
@settings(max_examples=5)
@given(seed=seeds)
def test_exact_members_match_packing_solvers_on_cubic(n, seed):
    assert_matches_packing_solvers(random_cubic(n, seed))


@pytest.mark.parametrize("n", range(1, 17))
@settings(max_examples=5)
@given(p=edge_prob, seed=seeds)
def test_exact_sizes_match_bruteforce(n, p, seed):
    g = gnp_random(n, p, seed)
    assert gamma_exact(g).size == gamma_bruteforce(g).size
    assert idom_exact(g).size == idom_by_enumeration(g)


def assert_seeded_idom_matches(g):
    seeded = idom_exact(g, gamma=gamma_exact(g))
    assert seeded.size == idom_exact(g).size == idom_by_enumeration(g)
    assert is_dominating(g, seeded.members) and induced_edge_count(g, seeded.members) == 0


def test_idom_search_stops_at_the_gamma_size(monkeypatch):
    # gamma's certificate induces an edge here, and i = gamma: the search
    # ends once its incumbent reaches that size
    g = random_cubic(40, 3)
    gamma = gamma_exact(g)
    assert induced_edge_count(g, gamma.members) and idom_exact(g).size == gamma.size
    branches = []
    branch = domination._idom_branch

    def counted(*args):
        branches.append(args)
        return branch(*args)

    monkeypatch.setattr(domination, "_idom_branch", counted)
    idom_exact(g)
    unseeded = len(branches)
    branches.clear()
    assert idom_exact(g, gamma=gamma).size == gamma.size
    assert len(branches) < unseeded


@pytest.mark.parametrize("n", range(13))
@settings(max_examples=15)
@given(p=edge_prob, seed=seeds)
def test_idom_from_gamma_certificate_on_gnp(n, p, seed):
    assert_seeded_idom_matches(gnp_random(n, p, seed))


@pytest.mark.parametrize("n", [8, 12, 16, 20])
@settings(max_examples=5)
@given(seed=seeds)
def test_idom_from_gamma_certificate_on_cubic(n, seed):
    assert_seeded_idom_matches(random_cubic(n, seed))


def remaining_optimum(masks, dominated, admissible, independent):
    """Fewest admissible vertices that complete the domination, found by
    trying every subset in increasing size."""
    n = len(masks)
    full = (1 << n) - 1
    pool = [v for v in range(n) if admissible >> v & 1]
    k = 0
    while True:
        for extra in combinations(pool, k):
            cover = dominated
            picked = 0
            for v in extra:
                cover |= masks[v]
                picked |= 1 << v
            if independent and any(masks[v] & picked & ~(1 << v) for v in extra):
                continue
            if cover == full:
                return k
        k += 1


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=25)
@given(p=edge_prob, seed=seeds)
def test_lower_bound_never_exceeds_remaining_optimum(n, p, seed):
    g = gnp_random(n, p, seed)
    t = _search_tables(g)
    masks, full = t.masks, t.full
    rng = random.Random(seed)
    cap = n + 1

    # gamma: any partial choice, every vertex admissible
    chosen = [v for v in range(n) if rng.random() < 0.3]
    dominated = 0
    for v in chosen:
        dominated |= masks[v]
    bound = _lower_bound(t, full ^ dominated, full, cap)
    assert bound <= remaining_optimum(masks, dominated, full, independent=False)
    need = rng.randint(0, n)
    assert _lower_bound(t, full ^ dominated, full, need) == min(bound, need)

    # i: an independent partial choice; only vertices outside N[chosen]
    # may join it
    dominated = 0
    for v in rng.sample(range(n), n):
        if not dominated >> v & 1 and rng.random() < 0.4:
            dominated |= masks[v]
    admissible = full ^ dominated
    bound = _lower_bound(t, full ^ dominated, admissible, cap)
    assert bound <= remaining_optimum(masks, dominated, admissible, independent=True)


def assert_cubic_connectivity(g, kappa=None):
    assert is_cubic(g)
    got = vertex_connectivity(g)
    assert got == nx_connectivity(g) == _flow_connectivity(g)
    assert kappa is None or got == kappa


def k4_less_an_edge(offset):
    """K4 on offset..offset+3 without the edge offset+2 -- offset+3."""
    return [(offset + a, offset + b) for a, b in combinations(range(4), 2) if (a, b) != (2, 3)]


def test_cubic_connectivity_of_hand_built_graphs():
    # a bridge 4-9 between two K4s with a subdivided edge
    bridged = k4_less_an_edge(0) + [(2, 4), (3, 4)] + k4_less_an_edge(5) + [(7, 9), (8, 9), (4, 9)]
    assert_cubic_connectivity(Graph.from_edges(10, bridged), 1)
    # two K4s less an edge, joined by the 2-edge cut {2-6, 3-7}
    paired = k4_less_an_edge(0) + k4_less_an_edge(4) + [(2, 6), (3, 7)]
    assert_cubic_connectivity(Graph.from_edges(8, paired), 2)
    # the 3-cube, 3-connected
    cube = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    assert_cubic_connectivity(Graph.from_edges(8, cube), 3)
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert_cubic_connectivity(k33, 3)
    for name in ("petersen", "prism", "k4"):
        assert_cubic_connectivity(named_graph(name), 3)


@settings(max_examples=60)
@given(n=st.integers(min_value=2, max_value=20).map(lambda k: 2 * k), seed=seeds)
def test_cubic_connectivity_on_random_cubic(n, seed):
    assert_cubic_connectivity(random_cubic(n, seed))


def opened(g, offset):
    """The edges of g shifted by `offset`, less its first edge, and that edge."""
    (a, b), *rest = g.edges()
    return [(u + offset, v + offset) for u, v in rest], (a + offset, b + offset)


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=10).map(lambda k: 2 * k),
       m=st.integers(min_value=2, max_value=10).map(lambda k: 2 * k),
       seed=seeds, bridge=st.booleans())
def test_cubic_connectivity_across_a_small_cut(n, m, seed, bridge):
    # two random cubic graphs, each less one edge, joined by two edges (a
    # 2-edge cut) or through two new vertices joined by a bridge
    left, (a, b) = opened(random_cubic(n, seed), 0)
    right, (c, d) = opened(random_cubic(m, seed + 1), n)
    edges = left + right
    if bridge:
        x, y = n + m, n + m + 1
        edges += [(a, x), (b, x), (c, y), (d, y), (x, y)]
    else:
        edges += [(a, c), (b, d)]
    g = Graph.from_edges(n + m + 2 * bridge, edges)
    assert_cubic_connectivity(g, 1 if bridge else None)
    assert vertex_connectivity(g) <= 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dynamic_program_matches_the_solvers_on_cubic(seed):
    g = random_cubic(40, seed)
    assert domination_by_frontier_dp(g) == gamma_exact(g).size
    assert domination_by_frontier_dp(g, independent=True) == idom_exact(g).size


@settings(max_examples=40)
@given(n=st.integers(min_value=0, max_value=20), p=edge_prob, seed=seeds)
def test_dynamic_program_matches_the_solvers_on_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    gamma = gamma_exact(g)
    assert domination_by_frontier_dp(g) == gamma.size
    assert domination_by_frontier_dp(g, independent=True) == idom_exact(g).size == idom_exact(
        g, gamma=gamma).size


def assert_counts_the_min_dsets(g):
    gamma = gamma_exact(g).size
    count = domination_by_frontier_dp(g, count=True)
    assert len(enumerate_min_dsets(g, gamma).dsets) == count
    assert not enumerate_min_dsets(g, gamma, limit=count).truncated
    short = enumerate_min_dsets(g, gamma, limit=count - 1)
    assert short.truncated and len(short.dsets) == count - 1


@settings(max_examples=20)
@given(n=st.sampled_from([4, 6, 8, 10, 12, 14, 16]), seed=seeds)
def test_dynamic_program_counts_the_min_dsets_on_cubic(n, seed):
    assert_counts_the_min_dsets(random_cubic(n, seed))


@settings(max_examples=30)
@given(n=st.integers(min_value=1, max_value=14), p=edge_prob, seed=seeds)
def test_dynamic_program_counts_the_min_dsets_on_gnp(n, p, seed):
    assert_counts_the_min_dsets(gnp_random(n, p, seed))


def gamma_with_checked_lists(g):
    """gamma_exact(g), checking at every node that the handed-down branch
    list equals a rescan, and that every list the node hands its children
    and does not mark stale equals the useful candidates of its vertex;
    returns the certificate and the node count."""
    branch = domination._gamma_branch
    nodes = []

    def checked(t, undominated, carried):
        pick, handed = branch(t, undominated, carried)
        assert pick == gamma_branch_rescanned(g, undominated)
        lists, stale, at = handed
        assert at == undominated and not stale & ~undominated
        open_ = {v for v in range(g.n) if undominated >> v & 1}
        for u in open_:
            if not stale >> u & 1:
                assert lists[u] == useful_candidates(g, u, open_), (u, sorted(open_))
        nodes.append(undominated)
        return pick, handed

    domination._gamma_branch = checked
    try:
        return gamma_exact(g), len(nodes)
    finally:
        domination._gamma_branch = branch


@settings(max_examples=30)
@given(n=st.integers(min_value=2, max_value=20).map(lambda k: 2 * k), seed=seeds)
def test_handed_down_lists_match_a_rescan_on_cubic(n, seed):
    g = random_cubic(n, seed)
    gamma, _ = gamma_with_checked_lists(g)
    assert gamma == gamma_exact(g)


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=14), p=edge_prob, seed=seeds)
def test_handed_down_lists_match_a_rescan_on_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    gamma, _ = gamma_with_checked_lists(g)
    assert gamma == gamma_exact(g)


def test_handed_down_lists_are_checked_deep_in_a_search():
    # the checked search is not vacuous: n=40 seed 1 branches many times
    gamma, nodes = gamma_with_checked_lists(random_cubic(40, 1))
    assert nodes > 20 and gamma == gamma_exact(random_cubic(40, 1))
