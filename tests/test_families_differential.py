"""Differential tests of the link-graph families against the greedy code.

`seamless_families` takes the components of a link graph whose pairs are
decided by counting shared vertices and edges, and `prune_nonexclusive`
regroups survivors by the family's own links.  Both must return the very
families, links included, and the very groups, in the same order, of the
implementations they replaced: families from one link test per cycle
pair, families grown from every seed with both link directions tested,
and pruning that tests links again.  The count rule itself must hold
exactly on the pairs that `try_ear_link` links, in either order.  Each
group must also meet what makes it exclusive: every cycle owns a vertex
no other survivor touches, and the family's links among its cycles
connect it.  On dense graphs, where both of those oracles are too slow,
the one-pass prune is compared with the fixpoint prune it replaced.
Every family built here must meet the definition of a seamless family
(`family_fault`).
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domlab import (
    gnp_random,
    mod3_cycles,
    named_graph,
    prune_nonexclusive,
    random_cubic,
    seamless_families,
    vertex_connectivity,
)
from domlab.cycles import all_simple_cycles
from domlab.seams import CycleCollection, try_ear_link

from _oracles import (
    family_fault,
    prune_nonexclusive_by_fixpoint,
    prune_nonexclusive_relinking,
    seamless_families_by_pair_tests,
    seamless_families_greedy,
)

seeds = st.integers(min_value=0, max_value=10**6)


def assert_group_is_exclusive(fam, group, survivors) -> None:
    for c in group:
        others = {v for d in survivors if d != c for v in d.vertices}
        assert set(c.vertices) - others, c
    index = {c: i for i, c in enumerate(fam.cycles)}
    inside = {index[c] for c in group}
    reached = {index[group[0]]}
    frontier = [index[group[0]]]
    while frontier:
        i = frontier.pop()
        for link in fam.links:
            for a, b in ((link.base, link.derived), (link.derived, link.base)):
                if a == i and b in inside and b not in reached:
                    reached.add(b)
                    frontier.append(b)
    assert reached == inside


def assert_matches_greedy(cycles) -> None:
    families = seamless_families(cycles)
    assert families == seamless_families_greedy(cycles)
    for fam in families:
        assert family_fault(fam) is None
        groups = prune_nonexclusive(fam)
        assert groups == prune_nonexclusive_relinking(fam)
        survivors = [c for group in groups for c in group]
        for group in groups:
            assert_group_is_exclusive(fam, group, survivors)
    # the link relation is symmetric, so one direction per pair suffices
    for a, b in combinations(range(len(cycles)), 2):
        forward = try_ear_link(cycles[a], cycles[b], a, b)
        backward = try_ear_link(cycles[b], cycles[a], b, a)
        assert (forward is None) == (backward is None)


@pytest.mark.parametrize("n", [8, 10, 12])
@settings(max_examples=6)
@given(seed=seeds)
def test_families_match_greedy_on_random_cubic(n, seed):
    assert_matches_greedy(mod3_cycles(random_cubic(n, seed)))


@pytest.mark.parametrize("n", range(5, 9))
@settings(max_examples=4)
@given(p=st.sampled_from([0.5, 0.6, 0.7, 0.8]), seed=seeds)
def test_families_match_greedy_on_three_connected_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    assume(vertex_connectivity(g) >= 3 and len(all_simple_cycles(g)) <= 400)
    assert_matches_greedy(mod3_cycles(g))


def edge_set(c):
    vs = c.vertices
    return {frozenset(e) for e in zip(vs, vs[1:] + vs[:1])}


def assert_count_rule_matches_links(cycles) -> None:
    """s >= 2 shared vertices and s - 1 shared edges exactly on linked pairs."""
    edges = [edge_set(c) for c in cycles]
    for a, b in combinations(range(len(cycles)), 2):
        s = len(set(cycles[a].vertices) & set(cycles[b].vertices))
        counted = s >= 2 and len(edges[a] & edges[b]) == s - 1
        assert counted == (try_ear_link(cycles[a], cycles[b], a, b) is not None), (cycles[a], cycles[b])
        assert counted == (try_ear_link(cycles[b], cycles[a], b, a) is not None), (cycles[a], cycles[b])


def assert_matches_pair_tests(cycles) -> None:
    families = seamless_families(cycles)
    assert families == seamless_families_by_pair_tests(cycles)
    for fam in families:
        assert family_fault(fam) is None
    assert_count_rule_matches_links(cycles)


def window(cycles, start: int, size: int):
    """At most `size` of the listed cycles, read round from `start`: a
    G(9, 0.8) graph lists thousands, too many for one test per pair."""
    cut = start % len(cycles)
    return (cycles[cut:] + cycles[:cut])[:size]


@settings(max_examples=10)
@given(n=st.integers(min_value=4, max_value=8).map(lambda h: 2 * h), seed=seeds)
def test_families_match_pair_tests_on_random_cubic(n, seed):
    assert_matches_pair_tests(mod3_cycles(random_cubic(n, seed)))


@settings(max_examples=10)
@given(
    n=st.integers(min_value=6, max_value=9),
    p=st.sampled_from([0.4, 0.5, 0.6, 0.7, 0.8]),
    seed=seeds,
    start=st.integers(min_value=0, max_value=10**4),
)
def test_families_match_pair_tests_on_three_connected_gnp(n, p, seed, start):
    g = gnp_random(n, p, seed)
    assume(vertex_connectivity(g) >= 3)
    assert_matches_pair_tests(window(mod3_cycles(g), start, 150))


def test_count_rule_matches_links_on_chords():
    # full listings hold cycles of every length, so many pairs where one
    # cycle's vertices lie on the other
    for name in ("k4", "prism", "petersen"):
        assert_count_rule_matches_links(all_simple_cycles(named_graph(name)))


def grown_family(cycles, size: int) -> CycleCollection:
    """A collection of at most `size` of the listed cycles with the links
    that took them in: grown from the first cycle, each taken cycle tests
    every cycle not yet taken.  Linear in the listing while links are
    common, where `seamless_families` tests every pair."""
    taken, links = [0], []
    rest = list(range(1, len(cycles)))
    for pos, a in enumerate(taken):  # the list grows while it is read
        left = []
        for b in rest:
            link = None
            if len(taken) < size:
                link = try_ear_link(cycles[a], cycles[b], pos, len(taken))
            if link is None:
                left.append(b)
            else:
                taken.append(b)
                links.append(link)
        rest = left
    return CycleCollection(tuple(cycles[i] for i in taken), tuple(links))


@settings(max_examples=8)
@given(
    n=st.integers(min_value=7, max_value=9),
    p=st.sampled_from([0.5, 0.6, 0.7, 0.8]),
    seed=seeds,
    start=st.integers(min_value=0, max_value=10**4),
    size=st.integers(min_value=1, max_value=200),
)
def test_prune_matches_fixpoint_on_dense_gnp(n, p, seed, start, size):
    # no bound on the graph's cycle count: a G(9, 0.7) graph lists about
    # 2,000 0-mod-3 cycles, so the collection is grown, not the link graph
    g = gnp_random(n, p, seed)
    assume(vertex_connectivity(g) >= 3)
    cycles = mod3_cycles(g)
    cut = start % len(cycles)
    fam = grown_family(cycles[cut:] + cycles[:cut], size)
    assert family_fault(fam) is None
    groups = prune_nonexclusive(fam)
    assert groups == prune_nonexclusive_by_fixpoint(fam)
    survivors = [c for group in groups for c in group]
    for group in groups:
        assert_group_is_exclusive(fam, group, survivors)
