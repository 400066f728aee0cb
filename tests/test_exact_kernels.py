"""Differential tests of the exact kernels against independent oracles.

Connectivity is checked against networkx and the all-pairs flow it
replaced; gamma_exact and idom_exact must return the very member sets of
the packing-bound solvers they replaced, and the sizes of brute force;
delete_edges must return the graph, or raise the error, of the full
rebuild it replaced.
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
    gamma_bruteforce,
    gamma_exact,
    gnp_random,
    idom_exact,
    random_cubic,
    vertex_connectivity,
)
from domlab.domination import _lower_bound, _search_tables

from _oracles import (
    delete_edges_by_full_rebuild,
    gamma_exact_packing,
    idom_by_enumeration,
    idom_exact_packing,
    vertex_connectivity_all_pairs,
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
        assert delete_edges(g, cut) == expected


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


@pytest.mark.parametrize("n", range(15))
@settings(max_examples=10)
@given(p=edge_prob, seed=seeds)
def test_exact_members_match_packing_solvers_on_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    assert gamma_exact(g) == gamma_exact_packing(g)
    assert idom_exact(g) == idom_exact_packing(g)


@pytest.mark.parametrize("n", [10, 20, 30])
@settings(max_examples=5)
@given(seed=seeds)
def test_exact_members_match_packing_solvers_on_cubic(n, seed):
    g = random_cubic(n, seed)
    assert gamma_exact(g) == gamma_exact_packing(g)
    assert idom_exact(g) == idom_exact_packing(g)


@pytest.mark.parametrize("n", range(1, 17))
@settings(max_examples=5)
@given(p=edge_prob, seed=seeds)
def test_exact_sizes_match_bruteforce(n, p, seed):
    g = gnp_random(n, p, seed)
    assert gamma_exact(g).size == gamma_bruteforce(g).size
    assert idom_exact(g).size == idom_by_enumeration(g)


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
    masks, closed, scale = _search_tables(g)
    full = (1 << n) - 1
    rng = random.Random(seed)
    cap = n + 1

    # gamma: any partial choice, every vertex admissible
    chosen = [v for v in range(n) if rng.random() < 0.3]
    dominated = 0
    for v in chosen:
        dominated |= masks[v]
    bound = _lower_bound(masks, closed, full ^ dominated, full, scale, cap)
    assert bound <= remaining_optimum(masks, dominated, full, independent=False)
    need = rng.randint(0, n)
    assert _lower_bound(masks, closed, full ^ dominated, full, scale, need) == min(bound, need)

    # i: an independent partial choice; only vertices outside N[chosen]
    # may join it
    dominated = 0
    for v in rng.sample(range(n), n):
        if not dominated >> v & 1 and rng.random() < 0.4:
            dominated |= masks[v]
    admissible = full ^ dominated
    bound = _lower_bound(masks, closed, full ^ dominated, admissible, scale, cap)
    assert bound <= remaining_optimum(masks, dominated, admissible, independent=True)
