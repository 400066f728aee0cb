"""Seamlessly linked families of 0-mod-3 cycles and the family audit.

Two 0-mod-3 cycles connect without seam when one equals the other with a
single arc swapped for a single ear: the derived cycle is (base minus the
replaced arc) plus the ear, whose interior avoids the base entirely.
One rule decides it: two cycles link exactly when they share s >= 2
vertices and s - 1 edges (the lemma proven in `seamless_families`).
The pair scan applies it with two integer ANDs on per-cycle bitmasks,
and `try_ear_link` applies it in one pass over the derived cycle and
keeps a link as its (base, derived) index pair.
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
from .domination import check_deadline, undominated
from .graphs import Graph
from .reduction import AuditVerdict


def try_ear_link(base: Cycle, derived: Cycle, base_index: int, derived_index: int) -> tuple[int, int] | None:
    """The link (base_index, derived_index) when base links seamlessly to
    derived, or None, in one pass over derived.

    The pass counts the s derived vertices on base and the derived edges
    whose ends are consecutive on base, which are the shared edges.  The
    cycles link exactly when s >= 2 and those edges number s - 1: the
    lemma proven in `seamless_families`.  Identical cycles share s edges.
    """
    size = len(base.vertices)
    where = {v: p for p, v in enumerate(base.vertices)}
    shared = edges = 0
    q = where.get(derived.vertices[-1])
    for v in derived.vertices:
        p = where.get(v)
        if p is not None:
            shared += 1
            if q is not None and (p - q) % size in (1, size - 1):
                edges += 1
        q = p
    return (base_index, derived_index) if shared > 1 and edges == shared - 1 else None


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
    links: tuple[tuple[int, int], ...]  # (base, derived) indexes into cycles

    def __post_init__(self) -> None:
        if not self.cycles:
            raise ValueError("a collection needs at least one cycle")
        if len(set(self.cycles)) != len(self.cycles):
            raise ValueError("a collection lists a cycle twice")
        if any(len(c) % 3 for c in self.cycles):
            raise ValueError("every cycle length must be divisible by 3")
        k = len(self.cycles)
        if any(not (0 <= a < k and 0 <= b < k) for a, b in self.links):
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

    Only linked pairs reach `try_ear_link`, which returns each link as
    its index pair.  The families are the connected components of the link
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
    links: list[list[tuple[int, int]]] = [[] for _ in members]
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
    return tuple(tuple(fam.cycles[i] for i in order) for order in _link_components(sorted(kept), fam.links))


def spaced_assignments(cycles: Sequence[Cycle]) -> tuple[frozenset[int], ...]:
    """Every mark set spaced on all the given cycles, sorted.

    Each residue class of the first cycle starts one branch; every later
    cycle takes the one class that agrees with the marks already decided,
    and a branch ends where none does.  This needs each cycle after the
    first to share an edge with an earlier one, as the link-graph BFS
    order of `prune_nonexclusive`'s groups guarantees (linked cycles
    share s - 1 >= 1 edges).  Both ends of that edge are decided and
    consecutive on the cycle, and the three classes mark two consecutive
    positions in three different ways, so at most one class agrees.  A
    cycle that two classes fit shares no edge with the cycles before it:
    ValueError names its index, as it does for an empty sequence.  So the
    search is three chains of at most k steps on k cycles, with no cap,
    and it returns at most three sets.
    """
    if not cycles:
        raise ValueError("spaced marks need at least one cycle")
    classes = [[{v: pos % 3 == r for pos, v in enumerate(c.vertices)} for r in range(3)] for c in cycles]
    found = []
    for first in classes[0]:
        decided = dict(first)
        for idx in range(1, len(cycles)):
            fits = [marks for marks in classes[idx]
                    if all(decided.get(v, inside) == inside for v, inside in marks.items())]
            if len(fits) > 1:
                raise ValueError(f"cycle {idx} shares no edge with an earlier cycle")
            if not fits:
                break
            decided.update(fits[0])
        else:
            found.append(frozenset(v for v, inside in decided.items() if inside))
    return tuple(sorted(found, key=sorted))


# an exclusive group and its spaced mark sets
MarkedGroup = tuple[tuple[Cycle, ...], tuple[frozenset[int], ...]]


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
    extend each group's spaced mark sets by the lone vertices they fail
    to dominate, and keep the best dominating candidate.  Holds iff some
    candidate dominates with exactly `gamma` = gamma(g) vertices; either
    way the verdict reports candidate size against gamma.

    One domination test per mark set decides its candidate.  Spaced marks
    dominate every vertex of the group's cycles: each has a mark within
    one step along its cycle.  A lone vertex is a singleton component of
    g minus the cycles' union, so its neighbours all lie on the cycles
    and adding it newly dominates only itself.  Hence the marks plus the
    lone vertices they miss dominate exactly when every missed vertex is
    lone, and the candidate then has len(chosen) + |missed| vertices.

    The claim is stated for 3-connected graphs; the `family_dset` check
    gates on that, and the pipeline itself runs on any graph.
    """
    best: tuple[int, list[int]] | None = None
    tried = 0
    collections = 0
    for family in groups:
        check_deadline(deadline, "family audit")
        for group, assignments in family:
            collections += 1
            union = sum(1 << v for v in {v for c in group for v in c.vertices})
            lone = sum(1 << r for r in range(g.n) if g.masks[r] & ~union == 1 << r)
            for chosen in assignments:
                tried += 1
                if tried % 64 == 0:
                    check_deadline(deadline, "family audit")
                missed = undominated(g, chosen)
                if missed & ~lone:
                    continue
                size = len(chosen) + missed.bit_count()
                if best is None or size <= best[0]:
                    candidate = sorted(chosen.union(r for r in range(g.n) if missed >> r & 1))
                    if best is None or (size, candidate) < best:
                        best = (size, candidate)
    info = {
        "gamma": gamma,
        "families": len(groups),
        "collections": collections,
        "assignments": tried,
        # the mark search has no cap; the key stays until the next schema change
        "truncated": False,
        "candidate_size": best[0] if best else None,
        "candidate": best[1] if best else None,
    }
    holds = best is not None and best[0] == gamma
    if holds:
        return AuditVerdict(holds=True, info=info)
    witness = {"gamma": gamma, "candidate_size": best[0] if best else None}
    return AuditVerdict(holds=False, witness=witness, info=info)
