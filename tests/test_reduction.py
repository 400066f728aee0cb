import pytest

from domlab import (
    Graph,
    check_detach_fact,
    check_pair_separation,
    check_removal_fact,
    delete_edges,
    detach_transform,
    detachable_vertices,
    enumerate_min_dsets,
    find_forbidden_core,
    find_induced_claw,
    gamma_exact,
    gnp_random,
    greedy_removable_subset,
    is_dominating,
    named_graph,
    removable_edges,
)


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def subcubic_corpus(count=40):
    out = []
    seed = 0
    while len(out) < count:
        g = gnp_random(5 + seed % 6, 0.2, seed=4000 + seed)
        seed += 1
        if g.max_degree() <= 3:
            out.append(g)
    return out


def test_find_induced_claw():
    assert find_induced_claw(named_graph("k13")) == (0, 1, 2, 3)
    assert find_induced_claw(named_graph("k4")) is None
    assert find_induced_claw(named_graph("c6")) is None
    assert find_induced_claw(named_graph("petersen")) is not None


def test_find_forbidden_core():
    assert find_forbidden_core(named_graph("c6")) is None
    assert find_forbidden_core(named_graph("k13")) is None
    core = find_forbidden_core(named_graph("petersen"))
    assert (core.v1, core.v2) == (0, 1)
    assert core.region == frozenset({0, 1, 2, 4, 5, 6})


def test_removable_edges_examples():
    assert removable_edges(named_graph("p3"), {1}) == frozenset()
    assert removable_edges(triangle(), {0, 1}) == frozenset({(0, 1), (0, 2), (1, 2)})
    c4 = named_graph("c4")
    assert removable_edges(c4, {0, 2}) == frozenset(c4.edges())


def test_check_removal_fact():
    c4 = named_graph("c4")
    assert check_removal_fact(c4, {0, 2}, []).holds
    assert check_removal_fact(c4, {0, 2}, [(0, 1)]).holds
    batch = check_removal_fact(c4, {0, 2}, removable_edges(c4, {0, 2}))
    assert not batch.holds and batch.witness["undominated"] in (1, 3)
    with pytest.raises(ValueError):
        check_removal_fact(named_graph("p3"), {1}, [(0, 1)])  # not removable


def test_single_edge_removal_always_safe():
    for g in subcubic_corpus(25):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size).dsets:
            for e in removable_edges(g, dset):
                assert is_dominating(delete_edges(g, [e]), dset)


def test_greedy_removable_subset():
    assert greedy_removable_subset(named_graph("p3"), {1}) == frozenset()
    c4 = named_graph("c4")
    assert greedy_removable_subset(c4, {0, 2}) == frozenset({(0, 1), (0, 3)})
    # vertex 2 must keep one anchor into {0,1}, so only two deletions survive
    assert greedy_removable_subset(triangle(), {0, 1}) == frozenset({(0, 1), (0, 2)})


def test_greedy_subset_passes_removal_fact():
    for g in subcubic_corpus(15):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size, limit=5).dsets:
            kept = greedy_removable_subset(g, dset)
            assert check_removal_fact(g, dset, kept).holds


def test_detachable_vertices():
    assert detachable_vertices(named_graph("k13"), {0}) == frozenset({1, 2, 3})
    assert detachable_vertices(named_graph("p4"), {1, 3}) == frozenset({0})
    assert detachable_vertices(named_graph("c6"), {0, 3}) == frozenset({1, 2, 4, 5})


def test_detachable_avoids_anchor_set():
    for g in subcubic_corpus(20):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size, limit=3).dsets:
            pool = detachable_vertices(g, dset)
            assert not pool & dset
            for b in pool:
                anchors = [t for t in g.adj[b] if t in dset]
                assert anchors
                t1 = min(anchors)
                hood = set(g.closed_neighborhood(b)) - {t1}
                assert not hood & dset


def test_detach_transform_p4():
    p4 = named_graph("p4")
    result = detach_transform(p4, {1, 3}, {0})
    assert result.graph.n == 4
    assert result.graph.degree(0) == 0
    assert result.graph.edges() == [(1, 2), (2, 3)]
    assert result.deleted_edges == frozenset({(0, 1)})
    assert result.new_vertices == {}


def test_detach_transform_c6():
    c6 = named_graph("c6")
    result = detach_transform(c6, {0, 3}, {1})
    g = result.graph
    assert g.n == 7
    assert result.new_vertices == {(1, 2): 6}
    assert result.deleted_edges == frozenset({(0, 1)})
    assert sorted(g.adj[6]) == [1, 2]
    assert g.degree(1) == 1  # only the buffer vertex remains


def test_detach_transform_identity():
    c6 = named_graph("c6")
    result = detach_transform(c6, {0, 3}, set())
    assert result.graph == c6
    assert not result.new_vertices and not result.deleted_edges


def test_detach_transform_counts():
    for g in subcubic_corpus(20):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size, limit=2).dsets:
            pool = sorted(detachable_vertices(g, dset))[:2]
            result = detach_transform(g, dset, pool)
            grown = sum(g.degree(b) - 1 for b in pool)
            assert result.graph.n == g.n + grown
            assert result.graph.m == g.m - len(pool) + grown
            for (b, other), w in result.new_vertices.items():
                assert result.graph.neighbors(w) == tuple(sorted((b, other)))


def test_check_detach_fact_examples():
    assert check_detach_fact(named_graph("p4"), {1, 3}, {0}).holds
    verdict = check_detach_fact(named_graph("c6"), {0, 3}, {1})
    assert verdict.holds and not verdict.vacuous
    empty = check_detach_fact(named_graph("c6"), {0, 3}, set())
    assert empty.holds
    with pytest.raises(ValueError):
        check_detach_fact(named_graph("p4"), {1, 3}, {2})


def test_check_detach_fact_validates_once(monkeypatch):
    from domlab import reduction

    calls = []
    original = reduction.detachable_vertices

    def counted(g, anchors):
        calls.append(anchors)
        return original(g, anchors)

    monkeypatch.setattr(reduction, "detachable_vertices", counted)
    verdict = check_detach_fact(named_graph("c6"), {0, 3}, {1})
    assert verdict.holds and not verdict.vacuous  # the transform ran
    assert len(calls) == 1
    detach_transform(named_graph("c6"), {0, 3}, {1})
    assert len(calls) == 2  # outside callers are still validated


def test_check_detach_fact_vacuous_for_non_dominating_anchors():
    # {0} leaves 2 and 3 of P4 undominated once vertex 1 is cut away
    verdict = check_detach_fact(named_graph("p4"), {0}, {1})
    assert verdict.vacuous and verdict.holds


def test_check_pair_separation():
    vac = check_pair_separation(named_graph("p4"), {0, 2})
    assert vac.holds and vac.vacuous
    star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    vac = check_pair_separation(star, {0, 1})
    assert vac.vacuous  # only two members, no third to clash with
    with pytest.raises(ValueError):
        check_pair_separation(Graph.from_edges(5, [(0, i) for i in range(1, 5)]), {0})
