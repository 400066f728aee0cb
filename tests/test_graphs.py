import pytest

from domlab import (
    Graph,
    components,
    delete_edges,
    gnp_random,
    is_connected,
    is_cubic,
    named_graph,
    random_cubic,
    vertex_connectivity,
)

from _oracles import connectivity_by_cut_enumeration, delete_vertices


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))  # missing mirror
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])  # out of range


def test_from_edges_deduplicates_and_sorts():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (0, 1)])
    assert g.adj == ((1, 2), (0,), (0,))
    assert g.m == 2


def test_named_graphs():
    k13 = named_graph("k13")
    assert k13.adj[0] == (1, 2, 3)
    assert all(k13.degree(v) == 1 for v in (1, 2, 3))
    c6 = named_graph("c6")
    assert c6.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
    pete = named_graph("petersen")
    assert (pete.n, pete.m) == (10, 15)
    assert is_cubic(pete)
    prism = named_graph("prism")
    assert (prism.n, prism.m) == (6, 9)
    theta = named_graph("theta(1,2,2)")
    assert (theta.n, theta.m) == (7, 8)
    with pytest.raises(ValueError):
        named_graph("mystery")
    with pytest.raises(ValueError):
        named_graph("theta(0,0,1)")


def test_connectivity_basics():
    assert is_connected(Graph.from_edges(0, []))
    assert is_connected(named_graph("k4"))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(named_graph("p5"))


def test_is_cubic():
    assert is_cubic(named_graph("petersen"))
    assert is_cubic(named_graph("k4"))
    assert not is_cubic(named_graph("c6"))


def test_vertex_connectivity_fixtures():
    assert vertex_connectivity(named_graph("k4")) == 3
    assert vertex_connectivity(named_graph("c5")) == 2
    assert vertex_connectivity(named_graph("petersen")) == 3
    assert vertex_connectivity(named_graph("p1")) == 0
    assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0
    with pytest.raises(ValueError):
        vertex_connectivity(Graph.from_edges(0, []))


def test_vertex_connectivity_against_cut_enumeration():
    samples = [named_graph(n) for n in ("k4", "c5", "k13", "prism", "theta(1,2,2)")]
    samples += [gnp_random(7, p, seed) for p, seed in ((0.3, 1), (0.5, 2), (0.7, 3))]
    samples += [gnp_random(8, 0.4, seed) for seed in (4, 5)]
    for g in samples:
        assert vertex_connectivity(g) == connectivity_by_cut_enumeration(g)


def test_connectivity_bounded_by_min_degree():
    for seed in range(10):
        g = gnp_random(9, 0.5, seed=seed)
        if g.n >= 2:
            assert vertex_connectivity(g) <= min(g.degree(v) for v in range(g.n))


def test_delete_edges():
    c4 = named_graph("c4")
    p4 = delete_edges(c4, [(0, 3)])
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    assert delete_edges(c4, []) == c4
    bare = delete_edges(c4, c4.edges())
    assert bare.m == 0 and bare.n == 4
    with pytest.raises(ValueError):
        delete_edges(c4, [(0, 2)])


def test_delete_vertices():
    p4 = named_graph("p4")
    p3, remap = delete_vertices(p4, [3])
    assert p3.edges() == [(0, 1), (1, 2)]
    assert remap == (0, 1, 2)
    same, remap = delete_vertices(p4, [])
    assert same == p4 and remap == (0, 1, 2, 3)
    k2, remap = delete_vertices(named_graph("k4"), [1, 3])
    assert k2.edges() == [(0, 1)]
    assert remap == (0, 2)
    with pytest.raises(ValueError):
        delete_vertices(p4, [9])


def test_components():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
    assert components(g) == ((0, 1), (2, 3, 4), (5,))
    assert components(g, banned={3}) == ((0, 1), (2,), (4,), (5,))


def test_random_cubic_contract():
    with pytest.raises(ValueError):
        random_cubic(5, 1)
    with pytest.raises(ValueError):
        random_cubic(2, 1)
    assert random_cubic(4, 99) == named_graph("k4")
    a = random_cubic(10, 7)
    b = random_cubic(10, 7)
    assert a == b
    assert is_cubic(a) and is_connected(a)
    for seed in range(6):
        g = random_cubic(12, seed)
        assert is_cubic(g) and is_connected(g)


def test_gnp_deterministic():
    assert gnp_random(9, 0.4, 3) == gnp_random(9, 0.4, 3)
    assert gnp_random(9, 0.4, 3) != gnp_random(9, 0.4, 4)
