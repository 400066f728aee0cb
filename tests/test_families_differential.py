"""Differential tests of the link-graph families against the greedy code.

`seamless_families` takes the components of a link graph built with one
link test per cycle pair, and `prune_nonexclusive` regroups survivors by
the family's own links.  Both must return the very collections, links
included, of the implementations they replaced: families grown from every
seed with both link directions tested, and pruning that tests links again.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domlab import (
    gnp_random,
    mod3_cycles,
    prune_nonexclusive,
    random_cubic,
    seamless_families,
    vertex_connectivity,
)
from domlab.cycles import all_simple_cycles
from domlab.seams import try_ear_link

from _oracles import prune_nonexclusive_relinking, seamless_families_greedy

seeds = st.integers(min_value=0, max_value=10**6)


def assert_matches_greedy(cycles) -> None:
    families = seamless_families(cycles)
    assert families == seamless_families_greedy(cycles)
    for fam in families:
        assert prune_nonexclusive(fam) == prune_nonexclusive_relinking(fam)
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
