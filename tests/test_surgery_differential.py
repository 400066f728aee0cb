"""Differential tests of the mask surgery tools and the shared-graph
edge-removal audit.

`removable_edges` and `detachable_vertices` decide each edge or vertex
with bit tests on the member mask; the oracles are the set-based bodies
they replaced.  Sets, and the `ValueError` for an out-of-range member,
must agree on G(n, p) and on random cubic graphs, for minimum dominating
sets and for arbitrary member sets.  The `edge_removal` check builds each
g - e once and shares it across the graph's sets; its witness must still
be the first failing (set, edge) in set-then-edge order.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import (
    detachable_vertices,
    enumerate_min_dsets,
    gamma_exact,
    gnp_random,
    is_dominating,
    named_graph,
    random_cubic,
    removable_edges,
)
from domlab import checks
from domlab.checks import CHECKS, Facts

from _oracles import detachable_vertices_by_sets, removable_edges_by_sets

seeds = st.integers(min_value=0, max_value=10**6)


def raised(fn, g, members) -> str | None:
    try:
        fn(g, members)
    except ValueError as exc:
        return str(exc)
    return None


def assert_tools_match(g, data) -> None:
    member_sets = list(enumerate_min_dsets(g, gamma_exact(g).size, limit=6).dsets)
    member_sets.append(data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n)))
    for members in member_sets:
        assert removable_edges(g, members) == removable_edges_by_sets(g, members)
        assert detachable_vertices(g, members) == detachable_vertices_by_sets(g, members)
        # a member listed twice counts once
        assert removable_edges(g, sorted(members) * 2) == removable_edges_by_sets(g, members)
        assert detachable_vertices(g, sorted(members) * 2) == detachable_vertices_by_sets(g, members)
    # one out-of-range member among valid ones
    bad = data.draw(st.sampled_from([-1, -g.n - 3, g.n, g.n + 5]))
    members = set(member_sets[-1]) | {bad}
    for fast, oracle in ((removable_edges, removable_edges_by_sets),
                         (detachable_vertices, detachable_vertices_by_sets)):
        message = raised(fast, g, members)
        assert message is not None and message == raised(oracle, g, members)


@settings(max_examples=150)
@given(n=st.integers(min_value=1, max_value=10), p=st.sampled_from([0.2, 0.3, 0.5, 0.7]),
       seed=seeds, data=st.data())
def test_surgery_tools_match_the_set_oracles_on_gnp(n, p, seed, data):
    assert_tools_match(gnp_random(n, p, seed), data)


@settings(max_examples=60)
@given(n=st.sampled_from([4, 6, 8, 10, 12, 14, 16]), seed=seeds, data=st.data())
def test_surgery_tools_match_the_set_oracles_on_random_cubic(n, seed, data):
    assert_tools_match(random_cubic(n, seed), data)


def test_edge_removal_reports_the_first_failure_in_todays_order(monkeypatch):
    g = named_graph("petersen")
    dsets = Facts(g).min_dsets.dsets
    order = [(d, e) for d in dsets for e in sorted(removable_edges(g, d))]
    real = checks.delete_edges

    def spoiled(e_bad, f):
        """`delete_edges` that also deletes edge f from g - e_bad."""
        def delete(h, edges):
            edges = list(edges)
            return real(h, edges + [f] if edges == [e_bad] else edges)
        return delete

    # Find a spoiled g - e whose first reader still holds while a later
    # one fails, so the failure comes from a graph an earlier set built.
    for e_bad, f in ((e, f) for e in g.edges() for f in g.edges() if f != e):
        delete = spoiled(e_bad, f)
        fails = [(d, e) for d, e in order if not is_dominating(delete(g, [e]), d)]
        readers = [d for d, e in order if e == e_bad]
        if fails and fails[0][0] != readers[0]:
            break
    else:
        pytest.fail("no spoiled edge is first read by a set that holds")

    built = []
    monkeypatch.setattr(checks, "delete_edges", lambda h, edges: built.append(list(edges)) or delete(h, edges))
    verdict = CHECKS["edge_removal"].evaluate(Facts(g))
    first_set, first_edge = fails[0]
    assert not verdict.holds
    assert verdict.witness == {"set": sorted(first_set), "edge": list(first_edge)}
    # every g - e was built once, for the first pair that read it
    stop = order.index(fails[0])
    assert built == [[e] for e in dict.fromkeys(e for _, e in order[:stop + 1])]
