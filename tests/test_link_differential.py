"""Differential tests of the count-lemma link test and the splice replay.

`try_ear_link` counts the vertices and edges two cycles share (the lemma
proven in `seamless_families`); `try_ear_link_by_splits` tries every pair
of on-base positions and builds the ear.  For every ordered pair (a, b)
of cycles, `try_ear_link` must return None exactly when the split oracle
does, and the index pair (a, b) otherwise.  The chord cases, where every
derived vertex lies on the base, come from full cycle listings, which
hold cycles of every length: all of K5's and K6's.  Pairs that no single
listing produces come from two different random graphs on one vertex
set.  Every family the pipeline builds must meet the definition of a
seamless family (`family_fault`): on every link, the split oracle's ear
exists, and swapping the replaced arc's edges for the ear's rebuilds the
derived cycle.
"""

from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domlab import (
    Graph,
    gnp_random,
    mod3_cycles,
    named_graph,
    random_cubic,
    seamless_families,
    vertex_connectivity,
)
from domlab.cycles import all_simple_cycles
from domlab.seams import family_links, try_ear_link

from _oracles import family_fault, try_ear_link_by_splits

seeds = st.integers(min_value=0, max_value=10**6)


def assert_links_match(cycles, pairs) -> None:
    for a, b in pairs:
        split = try_ear_link_by_splits(cycles[a], cycles[b], a, b)
        expected = None if split is None else (a, b)
        assert try_ear_link(cycles[a], cycles[b], a, b) == expected, (cycles[a], cycles[b])


def assert_listing_matches(cycles) -> None:
    assert_links_match(cycles, product(range(len(cycles)), repeat=2))
    for fam in seamless_families(cycles):
        assert family_fault(fam.cycles, family_links(fam)) is None


@pytest.mark.parametrize("n", [8, 10, 12, 14])
@settings(max_examples=5)
@given(seed=seeds)
def test_link_matches_splits_on_random_cubic(n, seed):
    assert_listing_matches(mod3_cycles(random_cubic(n, seed)))


@pytest.mark.parametrize("n", range(5, 9))
@settings(max_examples=5)
@given(p=st.sampled_from([0.5, 0.6, 0.7, 0.8]), seed=seeds)
def test_link_matches_splits_on_three_connected_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    assume(vertex_connectivity(g) >= 3 and len(all_simple_cycles(g)) <= 400)
    assert_listing_matches(mod3_cycles(g))


@settings(max_examples=10)
@given(n=st.integers(min_value=6, max_value=8), p=st.sampled_from([0.5, 0.6, 0.7]), pair=st.tuples(seeds, seeds))
def test_link_matches_splits_across_two_graphs(n, p, pair):
    first, second = (all_simple_cycles(gnp_random(n, p, seed)) for seed in pair)
    assume(first and second and first != second and len(first) * len(second) <= 20_000)
    cycles = first + second
    across = list(product(range(len(first)), range(len(first), len(cycles))))
    assert_links_match(cycles, across + [(b, a) for a, b in across])


def test_link_matches_splits_on_every_pair_of_k6():
    k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
    cycles = all_simple_cycles(k6)
    assert len(cycles) == 197
    assert_links_match(cycles, product(range(len(cycles)), repeat=2))


def test_link_matches_splits_on_chords():
    k5 = Graph.from_edges(5, list(combinations(range(5), 2)))
    cycles = all_simple_cycles(k5)
    assert_links_match(cycles, product(range(len(cycles)), repeat=2))
    for name in ("k4", "prism", "petersen"):
        cycles = all_simple_cycles(named_graph(name))
        inside = [
            (a, b)
            for a, b in combinations(range(len(cycles)), 2)
            if set(cycles[b].vertices) <= set(cycles[a].vertices)
            or set(cycles[a].vertices) <= set(cycles[b].vertices)
        ]
        chords = [(a, b) for a, b in inside if len(cycles[a]) != len(cycles[b])]
        assert any(try_ear_link(cycles[a], cycles[b], a, b) for a, b in chords), name
        assert_links_match(cycles, inside + [(b, a) for a, b in inside])
