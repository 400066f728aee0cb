"""Seamlessly linked families of 0-mod-3 cycles and the family audit.

Two 0-mod-3 cycles connect without seam when one equals the other with a
single arc swapped for a single ear: the derived cycle is (base minus the
replaced arc) plus the ear, whose interior avoids the base entirely.  A
`CycleCollection` is a family of such cycles whose link graph is
connected; the "exclusive" variant additionally requires every cycle to
own at least one vertex no other cycle of the family touches.

A mark set is "spaced" on a collection when, on every cycle, the marked
vertices occupy exactly one residue class of cyclic positions mod 3 --
one mark in every window of three consecutive cycle vertices.  Spaced
marks on a family come within reach of dominating the whole graph, which
is what `family_dset_audit` measures against the exact solver.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .cycles import Cycle
from .domination import SolverTimeout, is_dominating
from .graphs import Edge, Graph, components, edge_key
from .reduction import AuditVerdict

KIND_SEAMLESS = "CSG"
KIND_EXCLUSIVE = "DSG"

CHECK_FAMILY_DSET = "family_dset"

# search-node cap of the mark-assignment search, which raises
# BudgetExceeded on reaching it
ASSIGNMENT_CAP = 200_000


class BudgetExceeded(Exception):
    """A bounded search ran out of its expansion budget."""


@dataclass(frozen=True)
class EarLink:
    """One seamless step: derived = (base minus replaced_arc) plus ear.

    Both paths run from the same first to the same last vertex; the ear's
    interior is disjoint from the base cycle.
    """

    base: int
    derived: int
    ear: tuple[int, ...]
    replaced_arc: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ear) < 2 or len(self.replaced_arc) < 2:
            raise ValueError("ear and replaced arc need two endpoints each")
        if self.ear[0] == self.ear[-1]:
            raise ValueError("an ear is a path, not a cycle")
        if (self.ear[0], self.ear[-1]) != (self.replaced_arc[0], self.replaced_arc[-1]):
            raise ValueError("ear and replaced arc must share their endpoints")


def _path_edges(path: tuple[int, ...]) -> list[Edge]:
    return [edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


def _cycle_from_edge_set(edges: set[Edge]) -> Cycle | None:
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if any(len(row) != 2 for row in nbrs.values()):
        return None
    start = min(nbrs)
    walk = [start]
    prev = None
    while True:
        a, b = nbrs[walk[-1]]
        nxt = b if a == prev else a
        if nxt == start:
            break
        prev = walk[-1]
        walk.append(nxt)
    if len(walk) != len(nbrs):
        return None
    return Cycle.from_sequence(walk)


def replay_link(base: Cycle, link: EarLink) -> Cycle | None:
    """Rebuild the derived cycle from base, ear and replaced arc."""
    edges = set(base.edges())
    swapped = set(_path_edges(link.replaced_arc))
    if not swapped <= edges:
        return None
    edges -= swapped
    edges |= set(_path_edges(link.ear))
    return _cycle_from_edge_set(edges)


def _arc(cyc: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    # forward arc i..j inclusive, wrapping
    out = [cyc[i]]
    p = i
    while p != j:
        p = (p + 1) % len(cyc)
        out.append(cyc[p])
    return tuple(out)


def _base_complement(base: Cycle, kept: tuple[int, ...]) -> tuple[int, ...] | None:
    """Complement of a kept arc on the base cycle.

    If `kept` traces a contiguous arc of `base` (either direction), return
    the complementary arc oriented from kept[-1] around to kept[0]; else
    None.
    """
    bv = base.vertices
    size = len(bv)
    if not 2 <= len(kept) <= size:
        return None
    if kept[0] not in bv:
        return None
    p = bv.index(kept[0])
    for step in (1, -1):
        if all(bv[(p + step * t) % size] == kept[t] for t in range(len(kept))):
            q = (p + step * (len(kept) - 1)) % size
            out = [bv[q]]
            while q != p:
                q = (q + step) % size
                out.append(bv[q])
            return tuple(out)
    return None


def try_ear_link(base: Cycle, derived: Cycle, base_index: int, derived_index: int) -> EarLink | None:
    """Seamless link from base to derived, or None.

    Scans the derived cycle for a split into a kept arc (a contiguous arc
    of the base) and an ear whose interior avoids the base.  Deterministic:
    the first split in position order wins.
    """
    if base.vertices == derived.vertices:
        return None
    on_base = set(base.vertices)
    dv = derived.vertices
    anchors = [i for i, v in enumerate(dv) if v in on_base]
    if len(anchors) < 2:
        return None
    for i in anchors:
        for j in anchors:
            if i == j:
                continue
            ear = _arc(dv, i, j)
            if any(v in on_base for v in ear[1:-1]):
                continue
            kept = _arc(dv, j, i)
            replaced = _base_complement(base, kept)
            if replaced is None:
                continue
            return EarLink(base=base_index, derived=derived_index, ear=ear, replaced_arc=replaced)
    return None


def _link_components(k: int, links: Iterable[EarLink]) -> list[list[int]]:
    """Connected components of the link graph on cycles 0..k-1.

    Components come in order of their smallest cycle, each listed in BFS
    order from it with neighbours taken in increasing order.
    """
    nbrs: list[set[int]] = [set() for _ in range(k)]
    for link in links:
        nbrs[link.base].add(link.derived)
        nbrs[link.derived].add(link.base)
    seen = [False] * k
    out = []
    for start in range(k):
        if seen[start]:
            continue
        seen[start] = True
        order = [start]
        for i in order:  # the list grows while it is read: a FIFO queue
            for j in sorted(nbrs[i]):
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
        out.append(order)
    return out


def _without_exclusive(cycles: Sequence[Cycle]) -> list[int]:
    """Indexes of the cycles all of whose vertices lie on another cycle."""
    uses = Counter(v for c in cycles for v in c.vertices)
    return [i for i, c in enumerate(cycles) if all(uses[v] > 1 for v in c.vertices)]


@dataclass(frozen=True)
class CycleCollection:
    """Family of 0-mod-3 cycles with a connected seamless link graph."""

    cycles: tuple[Cycle, ...]
    links: tuple[EarLink, ...]
    kind: str
    vertex_union: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SEAMLESS, KIND_EXCLUSIVE):
            raise ValueError(f"unknown collection kind {self.kind!r}")
        if not self.cycles:
            raise ValueError("a collection needs at least one cycle")
        for c in self.cycles:
            if len(c) % 3:
                raise ValueError("every cycle length must be divisible by 3")
        union = frozenset(v for c in self.cycles for v in c.vertices)
        if union != self.vertex_union:
            raise ValueError("vertex_union does not match the cycles")
        k = len(self.cycles)
        for link in self.links:
            if not (0 <= link.base < k and 0 <= link.derived < k):
                raise ValueError("link refers to a cycle outside the collection")
            if replay_link(self.cycles[link.base], link) != self.cycles[link.derived]:
                raise ValueError("link replay does not rebuild the derived cycle")
        if len(_link_components(k, self.links)) != 1:
            raise ValueError("link graph is not connected")
        if self.kind == KIND_EXCLUSIVE:
            lacking = _without_exclusive(self.cycles)
            if lacking:
                raise ValueError(f"cycle {lacking[0]} has no exclusive vertex")


def _restricted(links: Iterable[EarLink], members: list[int]) -> list[EarLink]:
    """The links between `members`, renumbered by position in `members`."""
    pos = {i: li for li, i in enumerate(members)}
    return [
        EarLink(pos[l.base], pos[l.derived], l.ear, l.replaced_arc)
        for l in links
        if l.base in pos and l.derived in pos
    ]


def _collections(
    cycles: Sequence[Cycle], links: list[EarLink], kind: str
) -> tuple[CycleCollection, ...]:
    """One collection per component of the link graph, by smallest cycle."""
    out = []
    for order in _link_components(len(cycles), links):
        members = sorted(order)
        local = tuple(cycles[i] for i in members)
        union = frozenset(v for c in local for v in c.vertices)
        out.append(CycleCollection(local, tuple(_restricted(links, members)), kind, union))
    return tuple(out)


def seamless_families(
    cycles: Sequence[Cycle], *, deadline: float | None = None
) -> tuple[CycleCollection, ...]:
    """All maximal seamlessly linked families among the listed 0-mod-3 cycles.

    `cycles` is a listing such as `mod3_cycles(g)`.  The link graph has one
    `try_ear_link(cycles[a], cycles[b], a, b)` test per pair a < b.  One
    test per pair suffices because the link is symmetric: if derived =
    (base minus arc) plus ear, then base = (derived minus ear) plus arc,
    and the arc is an ear of derived: its interior leaves the kept part,
    and derived's other vertices are the ear's interior, which avoids
    base.  The families are the
    connected components of the link graph, ordered by their smallest
    member: growing a family from a seed until no listed cycle links to it
    reaches exactly the seed's component.  `deadline` is read at the first
    pair and every 1,024 pairs after it.
    """
    links = []
    for tested, (a, b) in enumerate(combinations(range(len(cycles)), 2)):
        if deadline is not None and tested % 1024 == 0 and time.monotonic() > deadline:
            raise SolverTimeout("link graph exceeded its budget")
        link = try_ear_link(cycles[a], cycles[b], a, b)
        if link is not None:
            links.append(link)
    return _collections(cycles, links, KIND_SEAMLESS)


def prune_nonexclusive(col: CycleCollection) -> tuple[CycleCollection, ...]:
    """Drop cycles owning no exclusive vertex until a fixpoint.

    The lexicographically smallest offender goes first, one at a time,
    recomputing exclusivity after each drop.  Survivors are regrouped by
    the collection's own links between them: a link between two cycles
    does not depend on the family, so pruning tests none.  The result may
    be several collections.
    """
    if col.kind != KIND_SEAMLESS:
        raise ValueError("pruning expects a seamless collection")
    kept = list(range(len(col.cycles)))
    while len(kept) > 1:
        lacking = _without_exclusive([col.cycles[i] for i in kept])
        if not lacking:
            break
        del kept[min(lacking, key=lambda li: col.cycles[kept[li]].vertices)]
    survivors = [col.cycles[i] for i in kept]
    return _collections(survivors, _restricted(col.links, kept), KIND_EXCLUSIVE)


def spaced_assignments(col: CycleCollection) -> tuple[frozenset[int], ...]:
    """Every mark set spaced on all cycles of the collection, sorted.

    Backtracking over one residue-class choice per cycle; a vertex shared
    by two cycles must be marked consistently, which prunes hard.  Cycles
    are visited in link-graph BFS order so shared vertices bind early.
    """
    order = [i for comp in _link_components(len(col.cycles), col.links) for i in comp]
    decided: dict[int, bool] = {}
    found: set[frozenset[int]] = set()
    spent = 0

    def place(idx: int) -> None:
        nonlocal spent
        spent += 1
        if spent > ASSIGNMENT_CAP:
            raise BudgetExceeded("assignment search budget exhausted")
        if idx == len(order):
            found.add(frozenset(v for v, inside in decided.items() if inside))
            return
        cyc = col.cycles[order[idx]].vertices
        for offset in range(3):
            claim: dict[int, bool] = {}
            ok = True
            for pos, v in enumerate(cyc):
                inside = pos % 3 == offset
                if v in decided:
                    if decided[v] != inside:
                        ok = False
                        break
                else:
                    claim[v] = inside
            if not ok:
                continue
            decided.update(claim)
            place(idx + 1)
            for v in claim:
                del decided[v]

    place(0)
    return tuple(sorted(found, key=sorted))


def assign_marks(col: CycleCollection) -> frozenset[int] | None:
    """Lexicographically smallest spaced mark set, or None."""
    all_sets = spaced_assignments(col)
    return all_sets[0] if all_sets else None


def family_dset_audit(
    g: Graph,
    families: Sequence[CycleCollection],
    gamma: int,
    *,
    deadline: float | None = None,
) -> AuditVerdict:
    """Do the exclusive families yield a minimum dominating set?

    `families` are the seamless families of g's 0-mod-3 cycles
    (`seamless_families(mod3_cycles(g))`).  Pipeline: prune each to its
    exclusive collections, enumerate spaced mark sets, extend each by the
    leftover singleton vertices it fails to dominate, and keep the best
    dominating candidate.  Holds iff some candidate dominates with exactly
    `gamma` = gamma(g) vertices; either way the verdict reports candidate
    size against gamma.

    The claim is stated for 3-connected graphs; the `family_dset` check
    gates on that, and the pipeline itself runs on any graph.
    """
    best: tuple[int, list[int]] | None = None
    tried = 0
    truncated = False
    collections = 0
    for fam in families:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("family audit exceeded its budget")
        for dsg in prune_nonexclusive(fam):
            collections += 1
            try:
                assignments = spaced_assignments(dsg)
            except BudgetExceeded:
                truncated = True
                continue
            leftover = components(g, banned=dsg.vertex_union)
            for chosen in assignments:
                tried += 1
                if deadline is not None and tried % 64 == 0 and time.monotonic() > deadline:
                    raise SolverTimeout("family audit exceeded its budget")
                candidate = set(chosen)
                for comp in leftover:
                    if len(comp) == 1:
                        r = comp[0]
                        if r not in candidate and not any(w in candidate for w in g.adj[r]):
                            candidate.add(r)
                if is_dominating(g, candidate):
                    key = (len(candidate), sorted(candidate))
                    if best is None or key < best:
                        best = key
    info = {
        "gamma": gamma,
        "families": len(families),
        "collections": collections,
        "assignments": tried,
        "truncated": truncated,
        "candidate_size": best[0] if best else None,
        "candidate": best[1] if best else None,
    }
    holds = best is not None and best[0] == gamma
    if holds:
        return AuditVerdict(check=CHECK_FAMILY_DSET, holds=True, info=info)
    witness = {"gamma": gamma, "candidate_size": best[0] if best else None}
    return AuditVerdict(check=CHECK_FAMILY_DSET, holds=False, witness=witness, info=info)
