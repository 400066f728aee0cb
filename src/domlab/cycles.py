"""Simple-cycle enumeration and the 0-mod-3 cycle listing.

The listing is exhaustive backtracking with deterministic (sorted)
neighbor order, sized for desk-scale graphs.  Its cost grows
exponentially with n, so it reads a deadline and raises `SolverTimeout`
once that has passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import check_deadline
from .graphs import Graph


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

    def __len__(self) -> int:
        return len(self.vertices)


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
        ticks += 1
        if ticks % 1024 == 0:
            check_deadline(deadline, "cycle listing")
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
