"""Differential tests of the mask detach audit against the graph-building one.

`check_detach_fact` decides every choice of at most two detachable
vertices for one anchor set with one mask test of the set, and counts the
choices without visiting them (its docstring proves both sides reduce to
"the set dominates g").  The oracle builds the vertex-deleted graph and
the detached transform for each choice, in sorted order.  Verdict,
vacuous flag and both counts must agree, for minimum dominating sets and
for arbitrary anchor sets, which are often not dominating and so reach
the vacuous branch.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    check_detach_fact,
    delete_edges,
    enumerate_min_dsets,
    gamma_exact,
    gnp_random,
    random_cubic,
)

from _oracles import detach_audit_by_transforms

seeds = st.integers(min_value=0, max_value=10**6)


def assert_matches_transforms(g, anchors) -> None:
    assert check_detach_fact(g, anchors).to_json() == detach_audit_by_transforms(g, anchors).to_json()


def assert_matches_on(g, data) -> None:
    for dset in enumerate_min_dsets(g, gamma_exact(g).size, limit=6).dsets:
        assert_matches_transforms(g, dset)
    anchors = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n))
    assert_matches_transforms(g, anchors)


@settings(max_examples=150)
@given(n=st.integers(min_value=1, max_value=10), p=st.sampled_from([0.2, 0.3, 0.5, 0.7]),
       seed=seeds, data=st.data())
def test_mask_audit_matches_transforms_on_gnp(n, p, seed, data):
    assert_matches_on(gnp_random(n, p, seed), data)


@settings(max_examples=100)
@given(n=st.sampled_from([4, 6, 8, 10]), seed=seeds, data=st.data())
def test_mask_audit_matches_transforms_on_subcubic(n, seed, data):
    g = random_cubic(n, seed)
    cut = data.draw(st.sets(st.sampled_from(g.edges()), max_size=g.m // 2))
    assert_matches_on(delete_edges(g, cut), data)
