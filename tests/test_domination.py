from math import ceil

import pytest

from domlab import (
    Graph,
    delete_edges,
    enumerate_min_dsets,
    gamma_bruteforce,
    gamma_exact,
    gnp_random,
    idom_exact,
    is_dominating,
    named_graph,
)
from domlab.domination import induced_edge_count

from _oracles import dominating_sets_of_size


def test_is_dominating():
    k4 = named_graph("k4")
    assert is_dominating(k4, {0})
    pete = named_graph("petersen")
    assert all(not is_dominating(pete, {v}) for v in range(10))
    assert is_dominating(named_graph("c6"), {0, 3})
    with pytest.raises(ValueError):
        is_dominating(k4, {7})


def test_gamma_bruteforce_fixtures():
    assert gamma_bruteforce(named_graph("c6")).size == 2
    assert gamma_bruteforce(named_graph("k4")).size == 1
    assert gamma_bruteforce(named_graph("petersen")).size == 3
    # lexicographically smallest witness
    assert sorted(gamma_bruteforce(named_graph("k4")).members) == [0]


def test_gamma_bruteforce_guard():
    with pytest.raises(ValueError):
        gamma_bruteforce(Graph.from_edges(25, []))


def test_gamma_exact_fixtures():
    assert gamma_exact(Graph.from_edges(0, [])).size == 0
    for n in range(3, 25):
        assert gamma_exact(named_graph(f"c{n}")).size == ceil(n / 3)
    lonely = Graph.from_edges(4, [(1, 2), (2, 3)])
    cert = gamma_exact(lonely)
    assert 0 in cert.members  # isolated vertex must be chosen


def test_exact_matches_bruteforce_on_random_graphs():
    for i in range(60):
        g = gnp_random(4 + i % 8, (0.2, 0.5, 0.8)[i % 3], seed=300 + i)
        assert gamma_exact(g).size == gamma_bruteforce(g).size


def test_idom_fixtures():
    assert idom_exact(named_graph("k13")).size == 1
    assert sorted(idom_exact(named_graph("k13")).members) == [0]
    assert idom_exact(named_graph("petersen")).size == 3
    assert idom_exact(named_graph("c4")).size == 2


def test_idom_certificates_are_maximal_independent():
    for i in range(30):
        g = gnp_random(4 + i % 7, 0.4, seed=500 + i)
        cert = idom_exact(g)
        assert induced_edge_count(g, cert.members) == 0
        assert is_dominating(g, cert.members)
        assert gamma_exact(g).size <= cert.size
        for v in range(g.n):  # adding any outside vertex breaks independence
            if v not in cert.members:
                assert any(u in cert.members for u in g.adj[v])


def test_enumerate_min_dsets():
    k4 = named_graph("k4")
    enum = enumerate_min_dsets(k4, 1)
    assert [sorted(s) for s in enum.dsets] == [[0], [1], [2], [3]]
    assert not enum.truncated
    clipped = enumerate_min_dsets(k4, 1, limit=1)
    assert [sorted(s) for s in clipped.dsets] == [[0]] and clipped.truncated
    c6 = named_graph("c6")
    enum = enumerate_min_dsets(c6, gamma_exact(c6).size)
    assert set(enum.dsets) == set(dominating_sets_of_size(c6, 2))


def test_certificate_fields():
    cert = gamma_exact(named_graph("c6"))
    assert cert.size == len(cert.members) == 2


def test_edge_deletion_never_lowers_gamma():
    for i in range(12):
        g = gnp_random(8, 0.5, seed=700 + i)
        base = gamma_exact(g).size
        for e in g.edges()[:4]:
            assert gamma_exact(delete_edges(g, [e])).size >= base


def test_induced_edge_count():
    k4 = named_graph("k4")
    assert induced_edge_count(k4, {0, 1, 2}) == 3
    assert induced_edge_count(k4, {0}) == 0
