"""The cycle listing against the walk it replaced.

`all_simple_cycles` walks each cycle one way and prunes a walk once no
closing neighbour of its start is left; `all_simple_cycles_both_ways`
walks every cycle both ways and keeps one direction when it closes.  The
two must return the same cycles in the same order, on random cubic
graphs, on G(n, p) and on complete graphs, where every pair of
neighbours of the start closes a cycle.  The old walk builds each cycle
through `Cycle`'s validation, so equal lists also show that the cycles
the listing builds without it are canonical.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import Graph, gnp_random, random_cubic
from domlab.cycles import all_simple_cycles

from _oracles import all_simple_cycles_both_ways

seeds = st.integers(min_value=0, max_value=10**6)


@pytest.mark.parametrize("n", range(4, 17, 2))
@settings(max_examples=6)
@given(seed=seeds)
def test_listing_matches_the_walk_both_ways_on_random_cubic(n, seed):
    g = random_cubic(n, seed)
    assert all_simple_cycles(g) == all_simple_cycles_both_ways(g)


@pytest.mark.parametrize("n", range(11))
@settings(max_examples=8)
@given(p=st.sampled_from([0.25, 0.4, 0.55]), seed=seeds)
def test_listing_matches_the_walk_both_ways_on_gnp(n, p, seed):
    g = gnp_random(n, p, seed)
    assert all_simple_cycles(g) == all_simple_cycles_both_ways(g)


def test_listing_matches_the_walk_both_ways_on_complete_graphs():
    for n in range(3, 8):
        g = Graph.from_edges(n, list(combinations(range(n), 2)))
        assert all_simple_cycles(g) == all_simple_cycles_both_ways(g)
