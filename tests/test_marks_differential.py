"""Differential tests of the mark search and the family audit's candidates.

`spaced_assignments` follows one residue class per cycle from each class
of the first cycle, which needs every cycle after the first to share an
edge with an earlier one.  The exclusive groups of `prune_nonexclusive`
and whole families in link-graph BFS order meet that, so on both it must
return the very mark sets of the backtracking search it replaced
(`spaced_assignments_by_search`, which takes the cycles in any order),
and never more than three.  The family audit decides each candidate with
one mask test; its best candidate must be the one that `is_dominating`
picks from the same mark sets.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domlab import (
    family_dset_audit,
    gamma_exact,
    gnp_random,
    mod3_cycles,
    prune_nonexclusive,
    random_cubic,
    seamless_families,
    vertex_connectivity,
)
from domlab.seams import exclusive_groups, spaced_assignments

from _oracles import family_candidate_by_domination_tests, in_link_order, spaced_assignments_by_search

seeds = st.integers(min_value=0, max_value=10**6)


def assert_marks_match_search(g) -> None:
    families = seamless_families(mod3_cycles(g))
    for fam in families:
        for cycles in (*prune_nonexclusive(fam), in_link_order(fam)):
            found = spaced_assignments(cycles)
            assert found == spaced_assignments_by_search(cycles)
            assert len(found) <= 3
    groups = exclusive_groups(families)
    verdict = family_dset_audit(g, groups, gamma_exact(g).size)
    best = family_candidate_by_domination_tests(g, groups)
    assert (verdict.info["candidate_size"], verdict.info["candidate"]) == (best or (None, None))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=8).map(lambda h: 2 * h), seed=seeds)
def test_marks_match_search_on_random_cubic(n, seed):
    assert_marks_match_search(random_cubic(n, seed))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=5, max_value=10), p=st.sampled_from([0.4, 0.5, 0.6, 0.7]), seed=seeds)
def test_marks_match_search_on_three_connected_gnp(n, p, seed):
    # dense n = 10 graphs list tens of thousands of cycles, too many for
    # `in_link_order`'s test of every pair
    g = gnp_random(n, p, seed)
    assume(vertex_connectivity(g) >= 3 and len(mod3_cycles(g)) <= 1_000)
    assert_marks_match_search(g)
