"""Simple-cycle enumeration and the 0-mod-3 cycle listing.

The listing is exhaustive backtracking with deterministic (sorted)
neighbor order, sized for desk-scale graphs.  It walks each cycle in one
direction only, and prunes a walk once no neighbour of its start is left
where the cycle could close (`all_simple_cycles` says why no cycle is
lost).  Its cost grows exponentially with n, so it reads a deadline and
raises `SolverTimeout` once that has passed.  Each `Cycle` computes its
vertex and edge bitmasks on first use and keeps them; equality, hashing
and repr ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .domination import check_deadline
from .graphs import Graph


@dataclass(frozen=True)
class Cycle:
    """Simple cycle in canonical form.

    Canonical means: the smallest vertex comes first and its smaller
    cycle-neighbor comes second, which fixes rotation and reflection.
    `all_simple_cycles` builds its cycles canonical, so they skip the
    validation in `__post_init__`.
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

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(vertex mask, edge mask): bit v for each vertex v, and bit
        w(w - 1)/2 + u for each edge u-w, u < w, a numbering of all
        vertex pairs that is the same in every cycle."""
        vertex_mask = edge_mask = 0
        u = self.vertices[-1]
        for w in self.vertices:
            vertex_mask |= 1 << w
            edge_mask |= 1 << (w * (w - 1) // 2 + u if u < w else u * (u - 1) // 2 + w)
            u = w
        return vertex_mask, edge_mask


def all_simple_cycles(g: Graph, *, deadline: float | None = None) -> list[Cycle]:
    """Every simple cycle once, in canonical form.

    Classic backtracking: a cycle is found from its smallest vertex s,
    along vertices above s, and walked only in the direction whose second
    vertex p is the smaller of s's two cycle-neighbours, so each cycle
    appears exactly once.  That walk closes at its last vertex, a
    neighbour of s above p.  It carries the set of such closers not yet
    on its path as a bitmask, beside the mask of vertices it may still
    enter, and extends no path that leaves no closer off it.  The prune
    loses no cycle: a vertex on the path stays on every extension of it,
    so no extension of such a path can close.  It skips only walks that
    find nothing, so cycles come out in the order of the full walk.  A
    cycle it finds has at least three distinct vertices, starts at its
    smallest and has path[1] below its last vertex, so it is built
    without `Cycle`'s validation.

    The number of cycles grows exponentially with n, so a `deadline` (a
    `time.monotonic()` value) raises `SolverTimeout` once passed; it is
    read at every 1,024th path that the walk extends.
    """
    adj = g.adj
    new, setattr_ = object.__new__, object.__setattr__
    found: list[Cycle] = []
    path: list[int] = []
    ticks = 0

    def extend(v: int, free: int, closers: int) -> None:
        # free: the vertices above s off the path; closers: those of them
        # adjacent to s and above path[1], never empty
        nonlocal ticks
        ticks += 1
        if ticks % 1024 == 0:
            check_deadline(deadline, "cycle listing")
        for w in adj[v]:
            bit = 1 << w
            if free & bit:
                path.append(w)
                if closers & bit:
                    cycle = new(Cycle)  # canonical by construction
                    setattr_(cycle, "vertices", tuple(path))
                    found.append(cycle)
                if closers & ~bit:
                    extend(w, free & ~bit, closers & ~bit)
                path.pop()

    for s in range(g.n):
        above = -1 << (s + 1)
        for p in adj[s]:
            closers = g.masks[s] & (-2 << p)  # the neighbours of s above p
            if p > s and closers:
                path = [s, p]
                extend(p, above & ~(1 << p), closers)
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
