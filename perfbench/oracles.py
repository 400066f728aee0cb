"""Independent references for spot checks of sweep records.

Neither uses the program's code: brute-force domination over subsets of
the generated edge list, and networkx's vertex connectivity.
"""

from __future__ import annotations

from itertools import combinations

from corpus import Edges


def gamma_bruteforce(n: int, edges: Edges) -> int:
    """Domination number by trying every vertex set in order of size."""
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    for k in range(n + 1):
        for combo in combinations(masks, k):
            cover = 0
            for m in combo:
                cover |= m
            if cover == full:
                return k
    raise AssertionError("the whole vertex set always dominates")


def connectivity_networkx(n: int, edges: Edges) -> int:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.node_connectivity(g)
