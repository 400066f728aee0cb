"""Differential tests of the one-pass link test and the splice replay.

`try_ear_link` finds the only possible ear in one pass over the derived
cycle; `try_ear_link_by_splits` tries every pair of on-base positions.
Both must return the very same `EarLink`, or both None, for every ordered
pair of cycles.  The chord cases, where every derived vertex lies on the
base, come from full cycle listings, which hold cycles of every length.
Every family the pipeline builds must meet the definition of a seamless
family (`family_fault`): on every link, swapping the replaced arc's edges
for the ear's rebuilds the derived cycle.
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
from domlab.seams import try_ear_link

from _oracles import family_fault, try_ear_link_by_splits

seeds = st.integers(min_value=0, max_value=10**6)


def assert_links_match(cycles, pairs) -> None:
    for a, b in pairs:
        link = try_ear_link(cycles[a], cycles[b], a, b)
        assert link == try_ear_link_by_splits(cycles[a], cycles[b], a, b), (cycles[a], cycles[b])


def assert_listing_matches(cycles) -> None:
    assert_links_match(cycles, product(range(len(cycles)), repeat=2))
    for fam in seamless_families(cycles):
        assert family_fault(fam) is None


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
