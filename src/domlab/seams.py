"""Seamlessly linked families of 0-mod-3 cycles and the family audit.

Two 0-mod-3 cycles connect without seam when one equals the other with a
single arc swapped for a single ear: the derived cycle is (base minus the
replaced arc) plus the ear, whose interior avoids the base entirely.
Such an ear is unique when it exists: it holds every derived edge that
is not a base edge, so `try_ear_link` finds it in one pass over the
derived cycle.  Whether two listed cycles link at all is decided by
counting what they share: s vertices and s - 1 edges, with s >= 2 (the
lemma in `seamless_families`), two integer ANDs on per-cycle bitmasks.
A `CycleCollection` is one component of that link graph, so its links
are seamless and connect it by construction.  Pruning splits a family
into exclusive groups: tuples of its cycles in which every cycle owns
at least one vertex no other cycle of the group touches.

A mark set is "spaced" on a set of cycles when, on every cycle, the marked
vertices occupy exactly one residue class of cyclic positions mod 3 --
one mark in every window of three consecutive cycle vertices.  Spaced
marks on a family come within reach of dominating the whole graph, which
is what `family_dset_audit` measures against the exact solver.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cycles import Cycle
from .domination import check_deadline, is_dominating, undominated
from .graphs import Graph
from .reduction import AuditVerdict


# search-node cap of the mark-assignment search, which returns None past it
ASSIGNMENT_CAP = 200_000


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
    p = where[dv[j]]
    ahead = bv[p:] + bv[:p]
    for walk in (ahead, ahead[:1] + ahead[:0:-1]):
        if walk[:cut] == kept:
            ear = turned[cut - 1 :] + turned[:1]
            return EarLink(base_index, derived_index, ear, walk[cut - 1 :] + walk[:1])
    return None


def _link_components(members: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the link graph on the member cycles.

    `members` are increasing cycle indexes and `pairs` the linked index
    pairs; pairs that touch a non-member are ignored.  Components come in
    order of their smallest member, each listed in BFS order from it with
    neighbours in increasing order.
    """
    nbrs: dict[int, set[int]] = {i: set() for i in members}
    for a, b in pairs:
        if a in nbrs and b in nbrs:
            nbrs[a].add(b)
            nbrs[b].add(a)
    seen: set[int] = set()
    out = []
    for start in nbrs:
        if start in seen:
            continue
        seen.add(start)
        order = [start]
        for i in order:  # the list grows while it is read: a FIFO queue
            for j in sorted(nbrs[i]):
                if j not in seen:
                    seen.add(j)
                    order.append(j)
        out.append(order)
    return out


@dataclass(frozen=True)
class CycleCollection:
    """Seamless family: 0-mod-3 cycles with a connected link graph.

    Only the input's shape is checked.  `seamless_families` builds each
    family as a link-graph component and each link on a pair its count
    lemma proves linked, so the links are seamless and connect the cycles.
    """

    cycles: tuple[Cycle, ...]
    links: tuple[EarLink, ...]

    def __post_init__(self) -> None:
        if not self.cycles:
            raise ValueError("a collection needs at least one cycle")
        if len(set(self.cycles)) != len(self.cycles):
            raise ValueError("a collection lists a cycle twice")
        if any(len(c) % 3 for c in self.cycles):
            raise ValueError("every cycle length must be divisible by 3")
        k = len(self.cycles)
        if any(not (0 <= link.base < k and 0 <= link.derived < k) for link in self.links):
            raise ValueError("link refers to a cycle outside the collection")

    @property
    def vertex_union(self) -> frozenset[int]:
        return frozenset(v for c in self.cycles for v in c.vertices)


def _cycle_masks(cycles: Sequence[Cycle]) -> tuple[list[int], list[int]]:
    """Each cycle's vertex bitmask and edge bitmask.  Edge bits are
    numbered on first sight within the listing."""
    bit: dict[tuple[int, int], int] = {}
    vertex_masks, edge_masks = [], []
    for c in cycles:
        vs = c.vertices
        vertex_mask = edge_mask = 0
        for u, w in zip(vs, vs[1:] + vs[:1]):
            vertex_mask |= 1 << u
            edge_mask |= 1 << bit.setdefault((u, w) if u < w else (w, u), len(bit))
        vertex_masks.append(vertex_mask)
        edge_masks.append(edge_mask)
    return vertex_masks, edge_masks


def seamless_families(
    cycles: Sequence[Cycle], *, deadline: float | None = None
) -> tuple[CycleCollection, ...]:
    """All maximal seamlessly linked families among the listed 0-mod-3 cycles.

    `cycles` is a listing such as `mod3_cycles(g)`.  Each pair a < b is
    decided by two integer ANDs, with this lemma: two distinct cycles B
    and D are linked exactly when s = |V(B) & V(D)| >= 2 and
    |E(B) & E(D)| = s - 1.  The link is symmetric: if D = (B minus arc)
    plus ear, then B = (D minus ear) plus arc, and the arc is an ear of
    D, since its interior avoids D.  So one direction per pair suffices.

    A link meets the counts.  Let D = (B minus replaced arc) plus ear
    and call the rest of B the kept arc.  The shared vertices are exactly
    the kept arc's, s >= 2 of them: the ear's interior avoids B, and the
    replaced arc's interior avoids D, whose vertices are the kept arc's
    and the ear's.  The shared edges are exactly the kept arc's s - 1:
    an ear with an interior has no edge on B, and a chord ear is not a B
    edge, for then it would be the whole replaced arc and D = B.

    The counts give a link.  Let S be the shared vertices.  Inside a
    cycle C the edges of C among S number |S| minus the number of paths
    they form, unless S = V(C), where they number |S|.  The s - 1 shared
    edges lie among S in both cycles.  If S = V(B) = V(D), both cycles
    are one shared Hamiltonian path plus the edge joining its ends, so
    B = D.  Otherwise name the cycles so that S != V(D).  Then D's edges
    among S, s minus their path count, hold the s - 1 shared edges, so
    they form one path K spanning S, all of them shared, and D is K plus
    a path through V(D) - S, which avoids B: the ear.  If S != V(B) too,
    the same holds in B, so B is K plus a path through V(B) - S, the
    replaced arc.  If S = V(B), B is K plus the edge joining K's ends, a
    replaced arc of one edge; read from D, that edge is a chord ear.

    Only linked pairs reach `try_ear_link`, still the only function that
    builds an `EarLink`.  The families are the connected components of the link
    graph, ordered by their smallest member: growing a family from a seed
    until no listed cycle links to it reaches exactly the seed's
    component.  Each family's links are built once, in pair order, with
    the cycles' positions in the family as indexes.  `deadline` is read
    before each row a of the pair scan and before every 1,024th link
    build.
    """
    vertex_masks, edge_masks = _cycle_masks(cycles)
    k = len(cycles)
    pairs = []
    for a in range(k):
        check_deadline(deadline, "link graph")
        va, ea = vertex_masks[a], edge_masks[a]
        for b in range(a + 1, k):
            shared = (va & vertex_masks[b]).bit_count()
            if shared > 1 and (ea & edge_masks[b]).bit_count() == shared - 1:
                pairs.append((a, b))
    members = [sorted(order) for order in _link_components(range(k), pairs)]
    place = {i: (f, pos) for f, family in enumerate(members) for pos, i in enumerate(family)}
    links: list[list[EarLink]] = [[] for _ in members]
    for built, (a, b) in enumerate(pairs):
        if built % 1024 == 0:
            check_deadline(deadline, "link graph")
        f, pos = place[a]
        links[f].append(try_ear_link(cycles[a], cycles[b], pos, place[b][1]))
    return tuple(
        CycleCollection(tuple(cycles[i] for i in family), tuple(own))
        for family, own in zip(members, links)
    )


def prune_nonexclusive(fam: CycleCollection) -> tuple[tuple[Cycle, ...], ...]:
    """The exclusive groups of a family: cycles of it, in link-graph BFS order.

    One pass over the cycles in lexicographic order of their vertices
    drops each cycle all of whose vertices lie on another cycle not yet
    dropped.  This is the fixpoint that drops the smallest such cycle and
    recounts, one at a time: a drop only lowers use counts, and a kept
    cycle still counts its own vertices, so a cycle owning an exclusive
    vertex keeps owning it.  Hence the fixpoint drops cycles in increasing
    order, each by this pass's test at that cycle, and a lone survivor,
    owning all its vertices, is never dropped.

    Survivors are regrouped by the family's own links between them, so
    pruning tests no link; groups come in order of their smallest
    survivor.  A group needs no check of its own: every survivor owns a
    vertex no other survivor touches, its links are family links, each
    built on a pair proven linked, and it is a component of the
    survivors' link graph, so it is connected.
    """
    uses = Counter(v for c in fam.cycles for v in c.vertices)
    kept = []
    for i in sorted(range(len(fam.cycles)), key=lambda i: fam.cycles[i].vertices):
        vertices = fam.cycles[i].vertices
        if all(uses[v] > 1 for v in vertices):
            uses.subtract(vertices)
        else:
            kept.append(i)
    pairs = ((link.base, link.derived) for link in fam.links)
    return tuple(tuple(fam.cycles[i] for i in order) for order in _link_components(sorted(kept), pairs))


def spaced_assignments(cycles: Sequence[Cycle]) -> tuple[frozenset[int], ...] | None:
    """Every mark set spaced on all the given cycles, sorted; None past the cap.

    Backtracking over one residue-class choice per cycle, in the given
    order; a vertex shared by two cycles must be marked consistently,
    which prunes hard.  Groups from `prune_nonexclusive` come in
    link-graph BFS order, so shared vertices bind early.  The result does
    not depend on the order, but the node count that reaches
    ASSIGNMENT_CAP does; past it every call returns at once.
    """
    decided: dict[int, bool] = {}
    found: set[frozenset[int]] = set()
    spent = 0

    def place(idx: int) -> None:
        nonlocal spent
        spent += 1
        if spent > ASSIGNMENT_CAP:
            return
        if idx == len(cycles):
            found.add(frozenset(v for v, inside in decided.items() if inside))
            return
        cyc = cycles[idx].vertices
        for offset in range(3):
            claim: dict[int, bool] = {}
            for pos, v in enumerate(cyc):
                inside = pos % 3 == offset
                if v not in decided:
                    claim[v] = inside
                elif decided[v] != inside:
                    break
            else:
                decided.update(claim)
                place(idx + 1)
                for v in claim:
                    del decided[v]

    place(0)
    return None if spent > ASSIGNMENT_CAP else tuple(sorted(found, key=sorted))


# an exclusive group and its spaced mark sets, None where the search
# reached ASSIGNMENT_CAP
MarkedGroup = tuple[tuple[Cycle, ...], tuple[frozenset[int], ...] | None]


def exclusive_groups(
    families: Sequence[CycleCollection], *, deadline: float | None = None
) -> tuple[tuple[MarkedGroup, ...], ...]:
    """Per family, its exclusive groups (`prune_nonexclusive`), each with
    its mark sets (`spaced_assignments`).  `deadline` is read before each
    family."""
    out = []
    for fam in families:
        check_deadline(deadline, "family audit")
        out.append(tuple((group, spaced_assignments(group)) for group in prune_nonexclusive(fam)))
    return tuple(out)


def family_dset_audit(
    g: Graph,
    groups: Sequence[Sequence[MarkedGroup]],
    gamma: int,
    *,
    deadline: float | None = None,
) -> AuditVerdict:
    """Do the exclusive families yield a minimum dominating set?

    `groups` are the marked exclusive groups of g's seamless families
    (`exclusive_groups(seamless_families(mod3_cycles(g)))`).  Pipeline:
    extend each group's spaced mark sets by the leftover singleton
    vertices they fail to dominate, and keep the best dominating
    candidate; a group without mark sets marks the verdict truncated.
    Holds iff some candidate dominates with exactly `gamma` = gamma(g)
    vertices; either way the verdict reports candidate size against gamma.

    The claim is stated for 3-connected graphs; the `family_dset` check
    gates on that, and the pipeline itself runs on any graph.
    """
    best: tuple[int, list[int]] | None = None
    tried = 0
    truncated = False
    collections = 0
    for family in groups:
        check_deadline(deadline, "family audit")
        for group, assignments in family:
            collections += 1
            if assignments is None:
                truncated = True
                continue
            # the singleton components of g minus the group's union: their
            # neighbours all lie in the union, so they are pairwise
            # non-adjacent and each joins exactly when `chosen` misses it
            union = sum(1 << v for v in {v for c in group for v in c.vertices})
            lone = [r for r in range(g.n) if g.masks[r] & ~union == 1 << r]
            for chosen in assignments:
                tried += 1
                if tried % 64 == 0:
                    check_deadline(deadline, "family audit")
                missed = undominated(g, chosen)
                candidate = set(chosen).union(r for r in lone if missed >> r & 1)
                if is_dominating(g, candidate):
                    key = (len(candidate), sorted(candidate))
                    if best is None or key < best:
                        best = key
    info = {
        "gamma": gamma,
        "families": len(groups),
        "collections": collections,
        "assignments": tried,
        "truncated": truncated,
        "candidate_size": best[0] if best else None,
        "candidate": best[1] if best else None,
    }
    holds = best is not None and best[0] == gamma
    if holds:
        return AuditVerdict(holds=True, info=info)
    witness = {"gamma": gamma, "candidate_size": best[0] if best else None}
    return AuditVerdict(holds=False, witness=witness, info=info)
