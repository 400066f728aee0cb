"""Differential tests of the pair-separation check's vacuity rule.

Every kept set of `tight_pair_separation` has size gamma and induces the
same fewest number of edges, so the check reads its vacuity from that
number and gamma and runs `check_pair_separation` only when no kept set
can be vacuous.  Its verdict must equal the one that tests every kept set
(`pair_separation_by_sets`), on subcubic graphs drawn from G(n, p), on
random cubic graphs, on fixtures where every minimum dominating set
induces an edge, and on enumerations cut short by a small `DSET_CAP`.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import Graph, checks, gnp_random, random_cubic
from domlab.checks import CHECKS, Facts

from _oracles import pair_separation_by_sets

seeds = st.integers(min_value=0, max_value=10**6)


def subcubic_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each edge dropped that would give an end a fourth neighbour."""
    degree = [0] * n
    kept = []
    for u, v in gnp_random(n, p, seed).edges():
        if degree[u] < 3 and degree[v] < 3:
            degree[u] += 1
            degree[v] += 1
            kept.append((u, v))
    return Graph.from_edges(n, kept)


def assert_matches_every_set(g: Graph) -> Facts:
    facts = Facts(g)
    check = CHECKS["tight_pair_separation"]
    assert check.gate(facts) is None
    assert check.evaluate(facts) == pair_separation_by_sets(facts)
    return facts


@settings(max_examples=100)
@given(n=st.integers(min_value=1, max_value=12), p=st.sampled_from([0.2, 0.3, 0.4, 0.6]), seed=seeds)
def test_vacuity_rule_matches_every_set_on_subcubic_gnp(n, p, seed):
    assert_matches_every_set(subcubic_gnp(n, p, seed))


@settings(max_examples=40)
@given(n=st.integers(min_value=2, max_value=7).map(lambda h: 2 * h), seed=seeds)
def test_vacuity_rule_matches_every_set_on_random_cubic(n, seed):
    assert_matches_every_set(random_cubic(n, seed))


# gamma = 3 < i = 4: every minimum dominating set induces an edge
FORCED_EDGE = [
    Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (6, 7)]),
    random_cubic(10, 72),
    random_cubic(10, 76),
    random_cubic(10, 107),
]


@pytest.mark.parametrize("g", FORCED_EDGE, ids=["star", "cubic-72", "cubic-76", "cubic-107"])
def test_forced_edge_fixtures_test_every_kept_set(g):
    facts = assert_matches_every_set(g)
    verdict = CHECKS["tight_pair_separation"].evaluate(facts)
    assert verdict.holds and not verdict.vacuous
    assert facts.gamma >= 3 and facts.min_edge_dsets[1] >= 1


@pytest.mark.parametrize("g, cap", [
    (random_cubic(10, 72), 3),  # gamma < i: the kept sets are tested
    (random_cubic(10, 1), 3),  # gamma = i: the kept sets are vacuous
    # gamma = i, yet the one set kept induces an edge, so it is tested
    (random_cubic(12, 3), 1),
], ids=["cubic-10-72", "cubic-10-1", "cubic-12-3"])
def test_vacuity_rule_matches_every_set_on_a_truncated_enumeration(monkeypatch, g, cap):
    monkeypatch.setattr(checks, "DSET_CAP", cap)
    facts = assert_matches_every_set(g)
    assert facts.min_dsets.truncated and len(facts.min_dsets.dsets) == cap
