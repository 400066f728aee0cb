"""Seamlessly linked families of 0-mod-3 cycles and the family audit.

Two 0-mod-3 cycles connect without seam when one equals the other with a
single arc swapped for a single ear: the derived cycle is (base minus the
replaced arc) plus the ear, whose interior avoids the base entirely.
Such an ear is unique when it exists: it holds every derived edge that
is not a base edge, so `try_ear_link` finds it in one pass over the
derived cycle, and `replay_link` checks a link by splicing the ear into
the base.  A `CycleCollection` is a family of such cycles whose link
graph is connected; the "exclusive" variant additionally requires every
cycle to own at least one vertex no other cycle of the family touches.

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
from .graphs import Graph, components
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


def _walks_from(cyc: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cycle's vertices read from position p in direction +1, then -1."""
    ahead = cyc[p:] + cyc[:p]
    return ahead, ahead[:1] + ahead[:0:-1]


def replay_link(base: Cycle, link: EarLink) -> Cycle | None:
    """Rebuild the derived cycle by splicing the ear into base.

    The replaced arc must be a simple contiguous arc of base, walked in
    direction +1 or -1 of base's vertex order, and the ear's interior must
    be distinct vertices off base; the derived sequence is then the ear
    followed by the rest of base in that direction.  None unless both hold.
    """
    arc, bv, ear = link.replaced_arc, base.vertices, link.ear
    if arc[0] not in bv:
        return None
    for walk in _walks_from(bv, bv.index(arc[0])):
        if walk[: len(arc)] == arc:
            if len(set(ear + walk)) != len(ear) + len(walk) - 2:
                return None
            return Cycle.from_sequence(ear + walk[len(arc) :])
    return None


def try_ear_link(base: Cycle, derived: Cycle, base_index: int, derived_index: int) -> EarLink | None:
    """Seamless link from base to derived, or None, in one pass over derived.

    The ear runs from an on-base position i of derived to the next
    on-base position j, and the kept arc from j round to i must be a
    contiguous arc of base.  Call the non-base derived vertices between
    two consecutive on-base ones a gap.  With two or more gaps there is
    no link, because the kept arc lies wholly on base; with exactly one,
    the ear spans it.  With no gap the ear is a single edge, a chord of
    base: it is not a base edge, else every derived edge would be one and
    derived = base, while every kept edge is.  So in both cases the ear
    holds exactly the derived edges that are not base edges, and it
    starts at the only on-base derived vertex whose next derived edge is
    not a base edge.  The first such vertex is the one candidate; the
    kept-arc test rejects it when a second gap or a second chord exists.
    That test reads base from the kept arc's first vertex in direction
    +1, then -1 (at most one can match on three or more vertices), and
    the replaced arc continues in the matching direction from the ear's
    first vertex round to its last.  Trying every pair of on-base
    positions in order finds this same split first, since no other pair
    succeeds.
    """
    bv, dv = base.vertices, derived.vertices
    if bv == dv:
        return None
    size, n = len(bv), len(dv)
    where = {v: p for p, v in enumerate(bv)}
    for i, v in enumerate(dv):
        p = where.get(v)
        if p is not None and dv[(i + 1) % n] not in (bv[p - 1], bv[(p + 1) % size]):
            break
    else:
        return None
    j = (i + 1) % n
    while dv[j] not in where:
        j = (j + 1) % n
    if j == i:  # derived meets base in this one vertex
        return None
    turned = dv[j:] + dv[:j]  # derived from j: the kept arc, then the ear
    cut = (i - j) % n + 1
    kept = turned[:cut]
    for walk in _walks_from(bv, where[dv[j]]):
        if walk[:cut] == kept:
            ear = turned[cut - 1 :] + turned[:1]
            return EarLink(base_index, derived_index, ear, walk[cut - 1 :] + walk[:1])
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
        if len(set(self.cycles)) != len(self.cycles):
            raise ValueError("a collection lists a cycle twice")
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
