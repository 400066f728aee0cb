"""Seeded graph corpora, generated and encoded by the benchmark itself.

The program under test only ever sees the graph6 files written here, so a
change to its own generators cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def _connected(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_cubic(n: int, rng: random.Random) -> Edges:
    """Connected simple 3-regular graph.

    Stubs are paired one random pair at a time, redrawing a pair that would
    make a loop or a parallel edge (Steger and Wormald); a dead end or a
    disconnected result starts over.  Unlike rejecting whole pairings, the
    cost hardly varies with the seed, which keeps set-up time steady.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(100):
                i, j = rng.sample(range(len(stubs)), 2)
                u, v = stubs[i], stubs[j]
                key = (min(u, v), max(u, v))
                if u != v and key not in edges:
                    break
            else:
                break
            edges.add(key)
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            ordered = sorted(edges)
            if _connected(n, ordered):
                return ordered


def gnp(n: int, p: float, rng: random.Random, max_min_degree: int | None = None) -> Edges:
    """Erdos-Renyi G(n, p); with max_min_degree, redraw until some vertex
    has at most that degree."""
    while True:
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        if max_min_degree is None:
            return edges
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) <= max_min_degree:
            return edges


def encode_graph6(n: int, edges: Edges) -> str:
    """graph6 line: n+63, then the upper triangle column by column, six
    bits per byte offset by 63 (n <= 62)."""
    if not 0 < n <= 62:
        raise ValueError("the benchmark encodes graphs of 1..62 vertices")
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)
