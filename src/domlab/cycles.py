"""Cycle enumeration, residue-constrained path search, ear decomposition.

All searches are exhaustive backtracking with deterministic (sorted)
neighbor order, sized for desk-scale graphs.  Where a search can be
cut short by a budget, the result distinguishes "proven absent" from
"gave up": only a completed search proves absence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .domination import SolverTimeout
from .graphs import Edge, Graph, delete_vertices, edge_key, is_connected


class BudgetExceeded(Exception):
    """A bounded search ran out of its expansion budget."""


@dataclass(frozen=True)
class Cycle:
    """Simple cycle in canonical form.

    Canonical means: the smallest vertex comes first and its smaller
    cycle-neighbor comes second, which fixes rotation and reflection.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(v)) != len(v):
            raise ValueError("cycle vertices must be distinct")
        if v[0] != min(v) or v[1] > v[-1]:
            raise ValueError("cycle is not in canonical rotation/reflection")

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "Cycle":
        """Canonicalize any rotation/direction of a vertex cycle."""
        seq = tuple(seq)
        pivot = seq.index(min(seq))
        rotated = seq[pivot:] + seq[:pivot]
        if rotated[1] > rotated[-1]:
            rotated = rotated[:1] + tuple(reversed(rotated[1:]))
        return cls(rotated)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Edge]:
        v = self.vertices
        return [edge_key(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def is_cycle_of(self, g: Graph) -> bool:
        v = self.vertices
        return all(g.has_edge(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))


def all_simple_cycles(g: Graph, *, deadline: float | None = None) -> list[Cycle]:
    """Every simple cycle once, in canonical form.

    Classic backtracking: a cycle is discovered from its smallest vertex s
    along vertices > s, and the direction with the smaller second vertex is
    kept, so each cycle appears exactly once.  The number of cycles grows
    exponentially with n, so a `deadline` (a `time.monotonic()` value)
    raises `SolverTimeout` once passed.
    """
    found: list[Cycle] = []
    path: list[int] = []
    on_path: set[int] = set()
    ticks = 0

    def extend(s: int, v: int) -> None:
        nonlocal ticks
        if deadline is not None:
            ticks += 1
            if ticks % 1024 == 0 and time.monotonic() > deadline:
                raise SolverTimeout("cycle listing exceeded its budget")
        for w in g.adj[v]:
            if w == s and len(path) >= 3 and path[1] < path[-1]:
                found.append(Cycle(tuple(path)))
            elif w > s and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(s, w)
                path.pop()
                on_path.remove(w)

    for s in range(g.n):
        path = [s]
        on_path = {s}
        extend(s, s)
    return found


def mod3_cycles(g: Graph, *, deadline: float | None = None) -> tuple[Cycle, ...]:
    """All simple cycles of length divisible by 3, shortest first.

    Ordered by (length, canonical vertex tuple), so the first entry is the
    shortest 0-mod-3 cycle.  `deadline` bounds the cycle listing.
    """
    return tuple(sorted(
        (c for c in all_simple_cycles(g, deadline=deadline) if len(c) % 3 == 0),
        key=lambda c: (len(c), c.vertices),
    ))


@dataclass(frozen=True)
class PathSearch:
    """Outcome of a budgeted path search.

    path is None with complete=True when the exhausted search proves no
    such path exists; complete=False means the budget ran out first.
    """

    path: tuple[int, ...] | None
    complete: bool


def path_with_residue(
    g: Graph, u: int, v: int, residue: int, budget: int = 1_000_000
) -> PathSearch:
    """First simple u-v path whose edge count is `residue` mod 3.

    Exhaustive lexicographic DFS with a node-expansion budget.
    """
    if u == v:
        raise ValueError("endpoints must be distinct")
    if residue not in (0, 1, 2):
        raise ValueError("residue must be 0, 1 or 2")
    if budget <= 0:
        raise ValueError("budget must be positive")
    for w in (u, v):
        if not 0 <= w < g.n:
            raise ValueError(f"vertex {w} out of range")
    path = [u]
    on_path = {u}
    spent = 0

    def walk(x: int) -> tuple[int, ...] | None:
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExceeded("path search budget exhausted")
        for w in g.adj[x]:
            if w == v:
                if len(path) % 3 == residue:
                    return tuple(path) + (v,)
            elif w not in on_path:
                path.append(w)
                on_path.add(w)
                hit = walk(w)
                path.pop()
                on_path.remove(w)
                if hit is not None:
                    return hit
        return None

    try:
        return PathSearch(walk(u), True)
    except BudgetExceeded:
        return PathSearch(None, False)


def fan_paths(
    g: Graph, apex: int, target_a: int, target_b: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two paths from the apex to each target sharing only the apex.

    Exhaustive search; returns the lexicographically first pair or None.
    """
    if len({apex, target_a, target_b}) != 3:
        raise ValueError("apex and targets must be three distinct vertices")

    first: list[int] = [apex]
    used: set[int] = {apex}

    def walk_second(x: int, blocked: set[int], path: list[int]) -> tuple[int, ...] | None:
        for w in g.adj[x]:
            if w == target_b:
                return tuple(path) + (w,)
            if w not in blocked and w not in path and w != target_a:
                path.append(w)
                hit = walk_second(w, blocked, path)
                path.pop()
                if hit is not None:
                    return hit
        return None

    def walk_first(x: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        for w in g.adj[x]:
            if w == target_a:
                p1 = tuple(first) + (w,)
                p2 = walk_second(apex, set(p1) - {apex}, [apex])
                if p2 is not None:
                    return (p1, p2)
            elif w not in used and w != target_b:
                first.append(w)
                used.add(w)
                hit = walk_first(w)
                first.pop()
                used.remove(w)
                if hit is not None:
                    return hit
        return None

    return walk_first(apex)


@dataclass(frozen=True)
class EarDecomposition:
    """Initial cycle plus ordered open ears whose union rebuilds the graph."""

    initial: Cycle
    ears: tuple[tuple[int, ...], ...]


def is_two_connected(g: Graph) -> bool:
    """n >= 3, connected, and no articulation vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    for v in range(g.n):
        h, _ = delete_vertices(g, [v])
        if not is_connected(h):
            return False
    return True


def _seed_cycle(g: Graph) -> list[int]:
    # lexicographic DFS from 0; the first back edge closes the seed cycle
    path = [0]
    on_path = {0}

    def walk(v: int, parent: int) -> list[int] | None:
        for w in g.adj[v]:
            if w == parent:
                continue
            if w in on_path:
                return path[path.index(w):]
            path.append(w)
            on_path.add(w)
            hit = walk(w, v)
            if hit is not None:
                return hit
            path.pop()
            on_path.remove(w)
        return None

    cycle = walk(0, -1)
    assert cycle is not None, "2-connected graphs contain a cycle"
    return cycle


def ear_decomposition(g: Graph) -> EarDecomposition:
    """Open ear decomposition of a 2-connected graph.

    Starts from a deterministic seed cycle and repeatedly attaches the
    first available ear: a missing edge between built vertices if one
    exists, else the BFS-shortest escape path through unbuilt vertices.
    """
    if not is_two_connected(g):
        raise ValueError("ear decomposition requires a 2-connected graph")
    seed = _seed_cycle(g)
    built_v = set(seed)
    built_e = {edge_key(seed[i], seed[(i + 1) % len(seed)]) for i in range(len(seed))}
    ears: list[tuple[int, ...]] = []
    all_edges = set(g.edges())
    while built_e != all_edges:
        chord = next(
            (e for e in sorted(all_edges - built_e) if e[0] in built_v and e[1] in built_v),
            None,
        )
        if chord is not None:
            ears.append(chord)
            built_e.add(chord)
            continue
        u = next(
            v for v in sorted(built_v) if any(w not in built_v for w in g.adj[v])
        )
        x = next(w for w in g.adj[u] if w not in built_v)
        # BFS from x through unbuilt vertices to any built vertex other than u
        parent = {x: None}
        queue = [x]
        end = None
        while queue and end is None:
            cur = queue.pop(0)
            for w in g.adj[cur]:
                if w in built_v:
                    if w != u:
                        end = (cur, w)
                        break
                elif w not in parent:
                    parent[w] = cur
                    queue.append(w)
        assert end is not None, "2-connectivity guarantees a second attachment"
        inner: list[int] = []
        cur = end[0]
        while cur is not None:
            inner.append(cur)
            cur = parent[cur]
        ear = (u, *reversed(inner), end[1])
        ears.append(ear)
        built_v.update(ear)
        built_e.update(edge_key(ear[i], ear[i + 1]) for i in range(len(ear) - 1))
    return EarDecomposition(Cycle.from_sequence(seed), tuple(ears))
