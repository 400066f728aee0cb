import pytest

from domlab import (
    Graph,
    check_detach_fact,
    check_pair_separation,
    check_removal_fact,
    delete_edges,
    detachable_vertices,
    enumerate_min_dsets,
    find_forbidden_core,
    find_induced_claw,
    gamma_exact,
    gnp_random,
    is_dominating,
    named_graph,
    removable_edges,
)

from _oracles import check_detach_choice, detach_transform


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
    assert find_forbidden_core(named_graph("petersen")) == (0, 1)


def test_removable_edges_examples():
    assert removable_edges(named_graph("p3"), {1}) == frozenset()
    assert removable_edges(triangle(), {0, 1}) == frozenset({(0, 1), (0, 2), (1, 2)})
    c4 = named_graph("c4")
    assert removable_edges(c4, {0, 2}) == frozenset(c4.edges())


def test_check_removal_fact():
    c4 = named_graph("c4")
    assert check_removal_fact(c4, {0, 2}, []).holds
    assert check_removal_fact(c4, {0, 2}, [(0, 1)]).holds
    # 1 keeps its edge to 2 and 3 its edge to 0, so this batch is safe
    assert check_removal_fact(c4, {0, 2}, [(0, 1), (2, 3)]).holds
    batch = check_removal_fact(c4, {0, 2}, removable_edges(c4, {0, 2}))
    assert not batch.holds and batch.witness["undominated"] in (1, 3)
    with pytest.raises(ValueError):
        check_removal_fact(named_graph("p3"), {1}, [(0, 1)])  # not removable


def test_single_edge_removal_always_safe():
    for g in subcubic_corpus(25):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size).dsets:
            for e in removable_edges(g, dset):
                assert is_dominating(delete_edges(g, [e]), dset)


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
                hood = {b, *g.adj[b]} - {t1}
                assert not hood & dset


def detached(g: Graph, anchors, chosen) -> Graph:
    return detach_transform(g, frozenset(anchors), frozenset(chosen))


def test_detach_transform_p4():
    h = detached(named_graph("p4"), {1, 3}, {0})
    assert h.n == 4  # 0 has no edge left to buffer
    assert h.degree(0) == 0
    assert h.edges() == [(1, 2), (2, 3)]


def test_detach_transform_c6():
    h = detached(named_graph("c6"), {0, 3}, {1})
    assert h.n == 7
    assert not h.has_edge(0, 1) and not h.has_edge(1, 2)
    assert h.adj[6] == (1, 2)  # the buffer spliced into 1-2
    assert h.adj[1] == (6,)  # only the buffer vertex remains


def test_detach_transform_identity():
    c6 = named_graph("c6")
    assert detached(c6, {0, 3}, set()) == c6


def test_detach_transform_counts():
    for g in subcubic_corpus(20):
        for dset in enumerate_min_dsets(g, gamma_exact(g).size, limit=2).dsets:
            pool = sorted(detachable_vertices(g, dset))[:2]
            h = detached(g, dset, pool)
            grown = sum(g.degree(b) - 1 for b in pool)
            assert h.n == g.n + grown
            assert h.m == g.m - len(pool) + grown
            for b in pool:
                assert all(w >= g.n for w in h.adj[b])  # buffers only
            for w in range(g.n, h.n):
                assert h.degree(w) == 2 and set(h.adj[w]) & set(pool)


def test_check_detach_fact_examples():
    assert check_detach_choice(named_graph("p4"), {1, 3}, {0}).holds
    verdict = check_detach_choice(named_graph("c6"), {0, 3}, {1})
    assert verdict.holds and not verdict.vacuous
    empty = check_detach_choice(named_graph("c6"), {0, 3}, set())
    assert empty.holds
    with pytest.raises(ValueError):
        check_detach_choice(named_graph("p4"), {1, 3}, {2})


def counting_pool_calls(monkeypatch, module, name="detachable_vertices") -> list:
    """Record each call `module` makes to its pool function `name`."""
    calls = []
    original = getattr(module, name)

    def counted(g, anchors):
        calls.append(anchors)
        return original(g, anchors)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_detach_fact_validates_once(monkeypatch):
    import _oracles

    calls = counting_pool_calls(monkeypatch, _oracles, "detachable_vertices_by_sets")
    verdict = check_detach_choice(named_graph("c6"), {0, 3}, {1})
    assert verdict.holds and not verdict.vacuous  # the transform ran
    assert len(calls) == 1


def test_check_detach_fact_vacuous_for_non_dominating_anchors():
    # {0} leaves 2 and 3 of P4 undominated once vertex 1 is cut away
    verdict = check_detach_choice(named_graph("p4"), {0}, {1})
    assert verdict.vacuous and verdict.holds


def test_detach_audit_counts():
    # pool {1, 2, 4, 5}: the empty choice, four singles and six pairs
    c6 = check_detach_fact(named_graph("c6"), {0, 3})
    assert c6.holds and not c6.vacuous
    assert c6.info == {"transforms": 11, "vacuous": 0}
    p4 = check_detach_fact(named_graph("p4"), {1, 3})
    assert p4.holds and not p4.vacuous
    assert p4.info == {"transforms": 2, "vacuous": 0}


def test_detach_audit_vacuous_for_non_dominating_anchors():
    # pool {1}; {0} dominates neither P4 nor P4 - 1
    verdict = check_detach_fact(named_graph("p4"), {0})
    assert verdict.holds and verdict.vacuous
    assert verdict.info == {"transforms": 2, "vacuous": 2}


def test_detach_audit_lists_the_pool_once(monkeypatch):
    from domlab import reduction

    calls = counting_pool_calls(monkeypatch, reduction)
    verdict = reduction.check_detach_fact(named_graph("c6"), {0, 3})
    assert verdict.info["transforms"] == 11
    assert len(calls) == 1


def test_check_pair_separation():
    vac = check_pair_separation(named_graph("p4"), {0, 2})
    assert vac.holds and vac.vacuous
    star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    vac = check_pair_separation(star, {0, 1})
    assert vac.vacuous  # only two members, no third to clash with
    with pytest.raises(ValueError):
        check_pair_separation(Graph.from_edges(5, [(0, i) for i in range(1, 5)]), {0})
    # only domination is re-validated, so a set that is not minimum can
    # fail; on the path 0-1-2-3-4, N[0] | N[1] meets N[3] in vertex 2
    p5 = named_graph("p5")
    clash = check_pair_separation(p5, {0, 1, 3})
    assert not clash.holds
    assert clash.witness == {"edge": [0, 1], "member": 3, "common": [2]}
    # N[1] | N[2] meets N[3] in 2 and 3, listed in increasing order
    clash = check_pair_separation(p5, {1, 2, 3})
    assert clash.witness == {"edge": [1, 2], "member": 3, "common": [2, 3]}
