"""Simple undirected graphs with dense integer vertex ids.

Vertex ids always run 0..n-1.  Graphs are immutable: every edit returns a
new value, so instances can be shared freely across threads and used as
dictionary keys.  Each graph also carries `masks`, the bitmask of N[v] per
vertex, built once with the graph; every domination test reads it.

Named fixture graphs use a fixed numbering:

    k4            complete graph on 0..3
    k13           claw: center 0, leaves 1..3
    petersen      outer 5-cycle 0..4, inner vertices 5..9; spokes i--(i+5),
                  inner edges (5+i)--(5+((i+2) mod 5))
    prism         triangles 0-1-2 and 3-4-5 joined by the matching i--(i+3)
    c<k>          cycle 0-1-...-(k-1)-0, k >= 3
    p<k>          path 0-1-...-(k-1), k >= 1
    theta(a,b,c)  hubs 0 and 1 joined by three internally disjoint paths
                  with a, b and c internal vertices (at most one of them
                  may be 0); internals are numbered 2.. in path order
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) order."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is a tuple of strictly increasing neighbor tuples, so every
    iteration over the graph is deterministic.  `masks` is derived from
    `adj`, and `search` holds the exact solvers' tables once one has run
    (`domination._search_tables`), so equality, hashing and repr ignore
    both.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    search: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        masks = []
        for v, row in enumerate(self.adj):
            prev = -1
            mask = 1 << v
            for u in row:
                if u <= prev:
                    raise ValueError(f"neighbors of {v} not strictly increasing")
                prev = u
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"edge {v}-{u} lacks its mirror")
                mask |= 1 << u
            masks.append(mask)
        # the class is frozen, so the derived field is set past its guard
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def max_degree(self) -> int:
        return max((len(row) for row in self.adj), default=0)


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex (n = 0 counts)."""
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_cubic(g: Graph) -> bool:
    """True iff every vertex has degree exactly 3."""
    return all(len(row) == 3 for row in g.adj)


def _split_network(g: Graph) -> tuple[list[int], list[int], list[list[int]]]:
    """Unit-capacity split digraph of g on flat arc arrays.

    Vertex v becomes node 2v (in) and node 2v+1 (out) joined by the arc
    2v -> 2v+1; each edge u-v contributes the arcs 2u+1 -> 2v and
    2v+1 -> 2u.  Arc a runs into head[a] with capacity capacity[a]; its
    reverse is arc a ^ 1, stored right after it with capacity zero.
    out_arcs[x] lists the arcs leaving node x, reverse arcs included.
    """
    head: list[int] = []
    capacity: list[int] = []
    out_arcs: list[list[int]] = [[] for _ in range(2 * g.n)]

    def arc(a: int, b: int) -> None:
        out_arcs[a].append(len(head))
        head.append(b)
        capacity.append(1)
        out_arcs[b].append(len(head))
        head.append(a)
        capacity.append(0)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1)
    for u, v in g.edges():
        arc(2 * u + 1, 2 * v)
        arc(2 * v + 1, 2 * u)
    return head, capacity, out_arcs


def _disjoint_paths(
    network: tuple[list[int], list[int], list[list[int]]], s: int, t: int, cap: int
) -> int:
    """Maximum number of internally disjoint s-t paths, capped at `cap`.

    Augmenting-path max flow from node 2s+1 to node 2t of the split
    digraph built by `_split_network`, so only the internal vertices of
    a path use up their unit arc.  s and t must not be adjacent.
    """
    head, capacity, out_arcs = network
    residual = capacity[:]
    src, dst = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        via = [-1] * len(out_arcs)
        via[src] = -2
        queue = deque([src])
        while queue and via[dst] == -1:
            a = queue.popleft()
            for arc in out_arcs[a]:
                if residual[arc]:
                    b = head[arc]
                    if via[b] == -1:
                        via[b] = arc
                        queue.append(b)
        if via[dst] == -1:
            break
        b = dst
        while b != src:
            arc = via[b]
            residual[arc] -= 1
            residual[arc ^ 1] += 1
            b = head[arc ^ 1]
        flow += 1
    return flow


def _cubic_connectivity(g: Graph) -> int:
    """Vertex connectivity of a connected cubic graph from its cycle space.

    In a cubic graph kappa equals the edge connectivity lambda (D. B. West,
    Introduction to Graph Theory, Thm 4.1.11), which is 1, 2 or 3.  Give
    each non-tree edge of a BFS tree its own bit and each tree edge the XOR
    of the bits of the fundamental cycles through it.  An edge whose label
    is 0 lies on no cycle, a bridge; otherwise two edges form a cut exactly
    when their labels are equal (the cycle-space test of Pritchard and
    Thurimella, ACM TALG 7, 2011), and a tree edge shares its label with a
    non-tree edge when that edge's cycle is the only one through it.
    """
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    label = [0] * g.n  # per vertex, then per tree edge to its parent
    labels = []
    bit = 1
    for v in order:
        for w in g.adj[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
            elif w > v and parent[v] != w and parent[w] != v:
                label[v] ^= bit
                label[w] ^= bit
                labels.append(bit)
                bit <<= 1
    for v in reversed(order[1:]):
        labels.append(label[v])
        label[parent[v]] ^= label[v]
    if 0 in labels:
        return 1
    return 2 if len(set(labels)) < len(labels) else 3


def _flow_connectivity(g: Graph) -> int:
    """Vertex connectivity of a connected, non-complete graph by Menger's
    theorem on Esfahanian and Hakimi's flow pairs.

    kappa is the least number of internally disjoint paths between two
    non-adjacent vertices, and the minimum degree delta bounds it from
    above, so each flow stops at `best`, the least count so far.  Let v be
    the least-id vertex of degree delta and S a minimum separator.  If v
    is not in S, a vertex in another component of g - S is a non-neighbor
    of v joined to it by only kappa disjoint paths.  If v is in S, it has
    a neighbor in every component of g - S, or S - v would separate g; two
    of them, in different components, are non-adjacent and joined by only
    kappa paths.  So flows from v to each non-neighbor and between each
    non-adjacent pair of v's neighbors, at most n - delta - 1 +
    C(delta, 2) of them, reach kappa (A. H. Esfahanian and S. L. Hakimi,
    Networks 14, 1984).
    """
    network = _split_network(g)
    v = min(range(g.n), key=g.degree)
    best = g.degree(v)
    pairs = [(v, t) for t in range(g.n) if t != v and not g.has_edge(v, t)]
    pairs += [(x, y) for x, y in combinations(g.adj[v], 2) if not g.has_edge(x, y)]
    for s, t in pairs:
        best = min(best, _disjoint_paths(network, s, t, best))
    return best


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity: complete graphs (including a single vertex)
    return n-1, disconnected graphs 0, cubic graphs read it from the cycle
    space (`_cubic_connectivity`) and every other graph runs the flows of
    `_flow_connectivity`."""
    if g.n == 0:
        raise ValueError("vertex connectivity needs at least one vertex")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    return _cubic_connectivity(g) if is_cubic(g) else _flow_connectivity(g)


def delete_edges(g: Graph, edges: Iterable[Edge]) -> Graph:
    """Same vertices, edges minus `edges`; non-edges are rejected."""
    doomed: dict[int, set[int]] = {}
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"{u}-{v} is not an edge")
        doomed.setdefault(u, set()).add(v)
        doomed.setdefault(v, set()).add(u)
    # only the endpoints' rows change; every other row is shared with g
    adj = list(g.adj)
    for v, gone in doomed.items():
        adj[v] = tuple(u for u in adj[v] if u not in gone)
    return Graph(g.n, tuple(adj))


def random_cubic(n: int, seed: int) -> Graph:
    """Connected random 3-regular graph via the pairing model.

    Pairings producing loops, parallel edges or a disconnected graph are
    rejected and redrawn, so the result is deterministic in (n, seed).
    """
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even vertex count n >= 4")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges: set[Edge] = set()
        ok = True
        it = iter(stubs)
        for u, v in zip(it, it):
            if u == v or edge_key(u, v) in edges:
                ok = False
                break
            edges.add(edge_key(u, v))
        if not ok:
            continue
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic in (n, p, seed)."""
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def _prism() -> Graph:
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    return Graph.from_edges(6, edges)


def _theta(a: int, b: int, c: int) -> Graph:
    if min(a, b, c) < 0:
        raise ValueError("theta path lengths must be non-negative")
    if (a == 0) + (b == 0) + (c == 0) > 1:
        raise ValueError("at most one theta path may be a bare hub-hub edge")
    edges: list[Edge] = []
    nxt = 2
    for length in (a, b, c):
        if length == 0:
            edges.append((0, 1))
            continue
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(nxt, edges)


# the fixture grammar: each pattern with the builder its integer groups feed
_FIXTURES = (
    (re.compile(r"k4"), lambda: _complete(4)),
    (re.compile(r"k13"), lambda: Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
    (re.compile(r"petersen"), _petersen),
    (re.compile(r"prism"), _prism),
    (re.compile(r"c(\d+)"), _cycle),
    (re.compile(r"p(\d+)"), _path),
    (re.compile(r"theta\((\d+),(\d+),(\d+)\)"), _theta),
)


def _fixture(text: str) -> Callable[[], Graph] | None:
    """The builder of the fixture `text` names, its arguments bound, or None."""
    key = text.strip().lower()
    for pattern, build in _FIXTURES:
        m = pattern.fullmatch(key)
        if m:
            return partial(build, *map(int, m.groups()))
    return None


def named_graph(name: str) -> Graph:
    """Standard fixture graph by name; see the module docstring for numbering."""
    build = _fixture(name)
    if build is None:
        raise ValueError(f"unknown graph name: {name!r}")
    return build()


def is_graph_name(text: str) -> bool:
    """True iff `text` parses as a named fixture rather than a graph6 line."""
    return _fixture(text) is not None
