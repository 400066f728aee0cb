"""Seamlessly linked families of 0-mod-3 cycles and their audits.

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
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .cycles import BudgetExceeded, Cycle, mod3_cycles
from .domination import SolverTimeout, gamma_exact, is_dominating
from .graphs import Edge, Graph, components, edge_key
from .reduction import AuditVerdict

KIND_SEAMLESS = "CSG"
KIND_EXCLUSIVE = "DSG"

CHECK_TWO_SPACED = "two_spaced_paths"
CHECK_LEFTOVER = "leftover_at_most_one"
CHECK_FAMILY_DSET = "family_dset"

# Seam-extension case table: (row, path length mod 3, endpoint type pair).
# A path of the listed residue between attachment vertices of the listed
# types would extend the family, contradicting its maximality.
EXTENSION_TABLE: tuple[tuple[int, int, tuple[str, str]], ...] = (
    (1, 2, ("a", "a")),
    (2, 0, ("a", "b")),
    (3, 2, ("a", "b")),
    (4, 1, ("a", "c")),
    (5, 0, ("a", "d")),
    (6, 1, ("a", "d")),
    (7, 1, ("b", "b")),
    (8, 2, ("b", "b")),
    (9, 0, ("b", "b")),
    (10, 1, ("b", "c")),
    (11, 2, ("b", "c")),
    (12, 0, ("b", "d")),
    (13, 2, ("b", "d")),
    (14, 1, ("b", "d")),
    (15, 0, ("c", "c")),
    (16, 0, ("c", "d")),
    (17, 2, ("c", "d")),
    (18, 2, ("d", "d")),
    (19, 0, ("d", "d")),
    (20, 1, ("d", "d")),
)
_EXTENSION_LOOKUP = {(residue, pair): row for row, residue, pair in EXTENSION_TABLE}


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
        nbrs: dict[int, set[int]] = {i: set() for i in range(k)}
        for link in self.links:
            if not (0 <= link.base < k and 0 <= link.derived < k):
                raise ValueError("link refers to a cycle outside the collection")
            if replay_link(self.cycles[link.base], link) != self.cycles[link.derived]:
                raise ValueError("link replay does not rebuild the derived cycle")
            nbrs[link.base].add(link.derived)
            nbrs[link.derived].add(link.base)
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != k:
            raise ValueError("link graph is not connected")
        if self.kind == KIND_EXCLUSIVE:
            for i, c in enumerate(self.cycles):
                others = set()
                for j, d in enumerate(self.cycles):
                    if j != i:
                        others.update(d.vertices)
                if not set(c.vertices) - others:
                    raise ValueError(f"cycle {i} has no exclusive vertex")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cycles": [list(c.vertices) for c in self.cycles],
            "links": [
                {
                    "base": l.base,
                    "derived": l.derived,
                    "ear": list(l.ear),
                    "replaced_arc": list(l.replaced_arc),
                }
                for l in self.links
            ],
            "vertex_union": sorted(self.vertex_union),
        }


def _collection_from(
    cycles: list[Cycle], indexes: list[int], pair_link, kind: str
) -> CycleCollection:
    local = [cycles[i] for i in indexes]
    pos = {gi: li for li, gi in enumerate(indexes)}
    links = []
    for a in range(len(indexes)):
        for b in range(a + 1, len(indexes)):
            link = pair_link(indexes[a], indexes[b])
            if link is not None:
                links.append(
                    EarLink(
                        base=pos[link.base],
                        derived=pos[link.derived],
                        ear=link.ear,
                        replaced_arc=link.replaced_arc,
                    )
                )
    union = frozenset(v for c in local for v in c.vertices)
    return CycleCollection(tuple(local), tuple(links), kind, union)


def _pair_link_memo(cycles: list[Cycle], link_budget: int | None):
    memo: dict[tuple[int, int], EarLink | None] = {}
    spent = [0]

    def pair_link(i: int, j: int) -> EarLink | None:
        key = (i, j) if i < j else (j, i)
        if key not in memo:
            spent[0] += 1
            if link_budget is not None and spent[0] > link_budget:
                raise BudgetExceeded("ear-link search budget exhausted")
            a, b = key
            memo[key] = try_ear_link(cycles[a], cycles[b], a, b) or try_ear_link(
                cycles[b], cycles[a], b, a
            )
        return memo[key]

    return pair_link


def seamless_families(
    g: Graph, *, link_budget: int | None = None, deadline: float | None = None
) -> tuple[CycleCollection, ...]:
    """All maximal seamlessly linked families of 0-mod-3 cycles.

    Grown greedily from every seed cycle in canonical order, then
    deduplicated; maximal means no enumerated 0-mod-3 cycle attaches to
    the family by a single ear link.  `deadline` bounds the cycle listing.
    """
    cycles = list(mod3_cycles(g, deadline=deadline).cycles)
    if not cycles:
        return ()
    pair_link = _pair_link_memo(cycles, link_budget)
    seen: set[frozenset[int]] = set()
    families = []
    for seed in range(len(cycles)):
        members = {seed}
        grew = True
        while grew:
            grew = False
            for cand in range(len(cycles)):
                if cand in members:
                    continue
                if any(pair_link(m, cand) for m in sorted(members)):
                    members.add(cand)
                    grew = True
        fam = frozenset(members)
        if fam not in seen:
            seen.add(fam)
            families.append(_collection_from(cycles, sorted(fam), pair_link, KIND_SEAMLESS))
    return tuple(families)


def prune_nonexclusive(col: CycleCollection, *, link_budget: int | None = None) -> tuple[CycleCollection, ...]:
    """Drop cycles owning no exclusive vertex until a fixpoint.

    The lexicographically smallest offender goes first, one at a time,
    recomputing exclusivity after each drop.  Survivors are regrouped by
    link-graph connectivity, so the result may be several collections.
    """
    if col.kind != KIND_SEAMLESS:
        raise ValueError("pruning expects a seamless collection")
    survivors = list(col.cycles)
    while len(survivors) > 1:
        lacking = []
        for c in survivors:
            others: set[int] = set()
            for d in survivors:
                if d is not c:
                    others.update(d.vertices)
            if not set(c.vertices) - others:
                lacking.append(c)
        if not lacking:
            break
        survivors.remove(min(lacking, key=lambda c: c.vertices))
    pair_link = _pair_link_memo(survivors, link_budget)
    k = len(survivors)
    nbrs: dict[int, set[int]] = {i: set() for i in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            if pair_link(i, j) is not None:
                nbrs[i].add(j)
                nbrs[j].add(i)
    out = []
    seen: set[int] = set()
    for start in range(k):
        if start in seen:
            continue
        group = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    group.add(j)
                    queue.append(j)
        out.append(_collection_from(survivors, sorted(group), pair_link, KIND_EXCLUSIVE))
    return tuple(out)


def has_mark_every_third(cycle: Cycle, marks: Iterable[int]) -> bool:
    """True iff marked vertices occupy exactly one residue class of the
    cycle's positions mod 3 (one mark per three consecutive vertices)."""
    size = len(cycle)
    if size % 3:
        raise ValueError("cycle length must be divisible by 3")
    chosen = set(marks)
    hit = [i % 3 for i, v in enumerate(cycle.vertices) if v in chosen]
    return len(hit) == size // 3 and len(set(hit)) == 1


def _link_bfs_order(col: CycleCollection) -> list[int]:
    k = len(col.cycles)
    nbrs: dict[int, set[int]] = {i: set() for i in range(k)}
    for link in col.links:
        nbrs[link.base].add(link.derived)
        nbrs[link.derived].add(link.base)
    order = []
    seen: set[int] = set()
    for start in range(k):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in sorted(nbrs[i]):
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
    return order


def spaced_assignments(col: CycleCollection, *, cap: int = 200_000) -> tuple[frozenset[int], ...]:
    """Every mark set spaced on all cycles of the collection, sorted.

    Backtracking over one residue-class choice per cycle; a vertex shared
    by two cycles must be marked consistently, which prunes hard.  Cycles
    are visited in link-graph BFS order so shared vertices bind early.
    """
    order = _link_bfs_order(col)
    decided: dict[int, bool] = {}
    found: set[frozenset[int]] = set()
    spent = 0

    def place(idx: int) -> None:
        nonlocal spent
        spent += 1
        if spent > cap:
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


def assign_marks(col: CycleCollection, *, cap: int = 200_000) -> frozenset[int] | None:
    """Lexicographically smallest spaced mark set, or None."""
    all_sets = spaced_assignments(col, cap=cap)
    return all_sets[0] if all_sets else None


def _validate_assignment(col: CycleCollection, marks: Iterable[int]) -> frozenset[int]:
    chosen = frozenset(marks)
    for c in col.cycles:
        if not has_mark_every_third(c, chosen):
            raise ValueError("marks are not spaced on every cycle of the collection")
    return chosen


def confined_vertices(g: Graph, col: CycleCollection) -> frozenset[int]:
    """Leftover vertices with at most one neighbor inside their own
    leftover component (the rest of their neighbors sit on the family)."""
    union = col.vertex_union
    out = set()
    for comp in components(g, banned=union):
        inside = set(comp)
        for r in comp:
            if sum(1 for w in g.adj[r] if w in inside) <= 1:
                out.add(r)
    return frozenset(out)


@dataclass(frozen=True)
class SeamExtension:
    """Path through a leftover component matching an extension-table row."""

    path: tuple[int, ...]
    table_row: int


@dataclass(frozen=True)
class AttachmentReport:
    """Typed attachment vertices of one leftover component.

    Types: (a) on the family and marked, (b) confined with no marked
    family neighbor, (c) confined with a marked family neighbor, (d) on
    the family and unmarked.
    """

    component_vertices: frozenset[int]
    attachments: tuple[tuple[int, str], ...]
    extension: SeamExtension | None


def _attachment_type(
    g: Graph, union: frozenset[int], marks: frozenset[int], o: int
) -> str:
    if o in union:
        return "a" if o in marks else "d"
    marked_union_nbrs = any(w in union and w in marks for w in g.adj[o])
    return "c" if marked_union_nbrs else "b"


def find_seam_extension(
    g: Graph,
    col: CycleCollection,
    marks: Iterable[int],
    component: Iterable[int],
    *,
    cap: int = 1_000_000,
) -> SeamExtension | None:
    """First path through the component matching an extension-table row.

    The component must be exactly one component of the graph minus the
    family union and the confined vertices.  Paths run between two
    attachment vertices with all interior vertices in the component;
    pairs, then paths, are scanned in lexicographic order.
    """
    chosen = _validate_assignment(col, marks)
    union = col.vertex_union
    confined = confined_vertices(g, col)
    blocked = union | confined
    comp = tuple(sorted(set(component)))
    if comp not in components(g, banned=blocked):
        raise ValueError("not a component of the graph minus family and confined vertices")
    inside = set(comp)
    attach = sorted({w for v in comp for w in g.adj[v] if w in blocked})
    types = {o: _attachment_type(g, union, chosen, o) for o in attach}
    spent = 0

    def search(o1: int, o2: int) -> tuple[int, ...] | None:
        nonlocal spent
        pair = tuple(sorted((types[o1], types[o2])))
        path = [o1]
        on_path: set[int] = set()

        def walk(x: int) -> tuple[int, ...] | None:
            nonlocal spent
            spent += 1
            if spent > cap:
                raise BudgetExceeded("seam-extension search budget exhausted")
            for w in sorted(g.adj[x]):
                if w == o2 and len(path) >= 2:
                    row = _EXTENSION_LOOKUP.get((len(path) % 3, pair))
                    if row is not None:
                        return tuple(path) + (o2,)
                elif w in inside and w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    hit = walk(w)
                    path.pop()
                    on_path.remove(w)
                    if hit is not None:
                        return hit
            return None

        return walk(o1)

    for a in range(len(attach)):
        for b in range(a + 1, len(attach)):
            hit = search(attach[a], attach[b])
            if hit is not None:
                row = _EXTENSION_LOOKUP[
                    ((len(hit) - 1) % 3, tuple(sorted((types[hit[0]], types[hit[-1]]))))
                ]
                return SeamExtension(path=hit, table_row=row)
    return None


def classify_attachments(
    g: Graph,
    col: CycleCollection,
    marks: Iterable[int],
    confined: Iterable[int] | None = None,
    *,
    cap: int = 1_000_000,
) -> tuple[AttachmentReport, ...]:
    """One report per leftover component: typed attachments plus any
    seam-extension path found through it."""
    chosen = _validate_assignment(col, marks)
    union = col.vertex_union
    pocket = frozenset(confined) if confined is not None else confined_vertices(g, col)
    blocked = union | pocket
    out = []
    for comp in components(g, banned=blocked):
        attach = sorted({w for v in comp for w in g.adj[v] if w in blocked})
        typed = tuple((o, _attachment_type(g, union, chosen, o)) for o in attach)
        ext = find_seam_extension(g, col, chosen, comp, cap=cap)
        out.append(
            AttachmentReport(
                component_vertices=frozenset(comp), attachments=typed, extension=ext
            )
        )
    return tuple(out)


def _union_adjacency(col: CycleCollection) -> dict[int, tuple[int, ...]]:
    nbrs: dict[int, set[int]] = {v: set() for v in col.vertex_union}
    for c in col.cycles:
        for u, v in c.edges():
            nbrs[u].add(v)
            nbrs[v].add(u)
    return {v: tuple(sorted(s)) for v, s in nbrs.items()}


def _spaced_on_path(path: tuple[int, ...], marks: frozenset[int]) -> bool:
    k = len(path) - 1
    hits = {i for i, v in enumerate(path) if v in marks}
    return any(hits == set(range(c, k + 1, 3)) for c in range(3))


def audit_two_spaced_paths(
    g: Graph, col: CycleCollection, marks: Iterable[int], *, cap: int = 500_000
) -> AuditVerdict:
    """Between every two family vertices there should be two spaced paths
    within the family whose second and second-to-last vertices differ.

    Paths live on the union of the family's cycle edges; spaced means the
    marks occupy exactly one residue class of path positions.
    """
    chosen = _validate_assignment(col, marks)
    nbrs = _union_adjacency(col)
    vertices = sorted(col.vertex_union)
    if len(vertices) < 2:
        return AuditVerdict(check=CHECK_TWO_SPACED, holds=True, vacuous=True)
    spent = 0

    def pair_ok(u: int, v: int) -> bool:
        nonlocal spent
        good: list[tuple[int, ...]] = []
        path = [u]
        on_path = {u}

        def walk(x: int) -> bool:
            nonlocal spent
            spent += 1
            if spent > cap:
                raise BudgetExceeded("spaced-path search budget exhausted")
            for w in nbrs[x]:
                if w == v:
                    full = tuple(path) + (v,)
                    if _spaced_on_path(full, chosen):
                        for old in good:
                            if old[1] != full[1] and old[-2] != full[-2]:
                                return True
                        good.append(full)
                elif w not in on_path:
                    path.append(w)
                    on_path.add(w)
                    if walk(w):
                        path.pop()
                        on_path.remove(w)
                        return True
                    path.pop()
                    on_path.remove(w)
            return False

        return walk(u)

    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if not pair_ok(u, v):
                return AuditVerdict(
                    check=CHECK_TWO_SPACED, holds=False, witness={"pair": [u, v]}
                )
    return AuditVerdict(
        check=CHECK_TWO_SPACED, holds=True, info={"pairs": len(vertices) * (len(vertices) - 1) // 2}
    )


def audit_leftover_single(g: Graph, col: CycleCollection, marks: Iterable[int]) -> AuditVerdict:
    """Each component left after removing the family union should be a
    single vertex whose neighbors are all marked.

    Connectivity gating is the caller's business (the sweep applies it);
    the check itself runs on any host graph.
    """
    chosen = _validate_assignment(col, marks)
    comps = components(g, banned=col.vertex_union)
    for comp in comps:
        if len(comp) > 1:
            return AuditVerdict(
                check=CHECK_LEFTOVER, holds=False, witness={"component": list(comp)}
            )
    for comp in comps:
        r = comp[0]
        if not all(w in chosen for w in g.adj[r]):
            return AuditVerdict(
                check=CHECK_LEFTOVER,
                holds=False,
                witness={"vertex": r, "neighbors": list(g.adj[r])},
            )
    return AuditVerdict(check=CHECK_LEFTOVER, holds=True, info={"leftover": len(comps)})


def family_dset_audit(
    g: Graph,
    *,
    assignment_cap: int = 200_000,
    link_budget: int | None = None,
    deadline: float | None = None,
    gamma: int | None = None,
) -> AuditVerdict:
    """Do the exclusive families yield a minimum dominating set?

    Pipeline: grow all seamless families, prune each to its exclusive
    collections, enumerate spaced mark sets, extend each by the leftover
    singleton vertices it fails to dominate, and keep the best dominating
    candidate.  Holds iff some candidate dominates with exactly gamma
    vertices; either way the verdict reports candidate size against gamma.
    `gamma` is gamma(g) when the caller already knows it.

    The claim is stated for 3-connected graphs; the `family_dset` check
    gates on that, and the pipeline itself runs on any graph.
    """
    if gamma is None:
        gamma = gamma_exact(g, deadline=deadline).size
    families = seamless_families(g, link_budget=link_budget, deadline=deadline)
    best: tuple[int, list[int]] | None = None
    tried = 0
    truncated = False
    collections = 0
    for fam in families:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverTimeout("family audit exceeded its budget")
        for dsg in prune_nonexclusive(fam, link_budget=link_budget):
            collections += 1
            try:
                assignments = spaced_assignments(dsg, cap=assignment_cap)
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
