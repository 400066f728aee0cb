"""Forbidden-subgraph checks and domination-preserving graph surgery.

The two surgery tools work relative to a dominating set X:

* `removable_edges(g, x)` lists the edges whose endpoints are either both
  inside X, both outside X, or an X / non-X pair where the outside vertex
  keeps a second X-neighbor.  Removing any single such edge preserves
  domination; removing several at once may not, which is exactly what
  `check_removal_fact` audits.
* `detachable_vertices(g, y)` lists the vertices b whose closed
  neighborhood meets Y in exactly one anchor t1; the detach transform
  cuts each chosen b from its anchor and splices a fresh buffer vertex
  into every other edge at b, which `check_detach_fact` audits.

Audit results are uniform `AuditVerdict` values with a stable check name,
so the sweep harness can serialize them without knowing the details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .domination import is_dominating
from .graphs import Edge, Graph, delete_edges, delete_vertices, edge_key

CHECK_PAIR_SEPARATION = "tight_pair_separation"
CHECK_EDGE_REMOVAL = "edge_removal"
CHECK_DETACH = "detach_transform"


@dataclass(frozen=True)
class AuditVerdict:
    """Uniform outcome of a structural audit.

    `witness` carries a JSON-ready counterexample whenever holds is False;
    `vacuous` marks runs whose hypothesis was never satisfied (and implies
    holds).  `info` is free-form JSON-ready reporting.
    """

    check: str
    holds: bool
    vacuous: bool = False
    witness: dict | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None:
            raise ValueError("a failed audit must carry a witness")
        if self.vacuous and not self.holds:
            raise ValueError("a vacuous audit cannot fail")

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "witness": self.witness,
            "info": self.info,
        }


def find_induced_claw(g: Graph) -> tuple[int, int, int, int] | None:
    """Lexicographically first induced claw as (center, leaf, leaf, leaf)."""
    for c in range(g.n):
        row = g.adj[c]
        if len(row) < 3:
            continue
        for a, b, d in combinations(row, 3):
            if not g.has_edge(a, b) and not g.has_edge(a, d) and not g.has_edge(b, d):
                return (c, a, b, d)
    return None


@dataclass(frozen=True)
class ForbiddenCore:
    """Adjacent pair of degree->=3 vertices plus their joint neighborhood."""

    v1: int
    v2: int
    region: frozenset[int]


def find_forbidden_core(g: Graph) -> ForbiddenCore | None:
    """Lexicographically first adjacent pair with both degrees >= 3."""
    for v1 in range(g.n):
        if g.degree(v1) < 3:
            continue
        for v2 in g.adj[v1]:
            if v2 > v1 and g.degree(v2) >= 3:
                region = g.closed_neighborhood(v1) | g.closed_neighborhood(v2)
                return ForbiddenCore(v1, v2, region)
    return None


def removable_edges(g: Graph, members: Iterable[int]) -> frozenset[Edge]:
    """Edges that are individually safe to delete while `members` dominates."""
    x = frozenset(members)
    for v in x:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    out = set()
    for u, v in g.edges():
        u_in, v_in = u in x, v in x
        if u_in and v_in:
            out.add((u, v))
        elif not u_in and not v_in:
            out.add((u, v))
        else:
            outside = v if u_in else u
            inside = u if u_in else v
            if any(w in x for w in g.adj[outside] if w != inside):
                out.add((u, v))
    return frozenset(out)


def check_removal_fact(g: Graph, members: Iterable[int], removed: Iterable[Edge]) -> AuditVerdict:
    """Does `members` still dominate after deleting `removed` all at once?

    `removed` must be a subset of removable_edges(g, members).  Single-edge
    subsets always hold; simultaneous deletions can strand a vertex whose
    X-neighbors were all cut, and then the verdict reports it.
    """
    x = frozenset(members)
    if not is_dominating(g, x):
        raise ValueError("the given set does not dominate the graph")
    chosen = frozenset(edge_key(u, v) for u, v in removed)
    allowed = removable_edges(g, x)
    if not chosen <= allowed:
        bad = sorted(chosen - allowed)[0]
        raise ValueError(f"edge {bad} is not removable for this set")
    stripped = delete_edges(g, chosen)
    for v in range(g.n):
        if v not in x and not any(w in x for w in stripped.adj[v]):
            return AuditVerdict(
                check=CHECK_EDGE_REMOVAL,
                holds=False,
                witness={"undominated": v, "removed": sorted(map(list, chosen))},
            )
    return AuditVerdict(check=CHECK_EDGE_REMOVAL, holds=True, info={"removed": len(chosen)})


def detachable_vertices(g: Graph, anchors: Iterable[int]) -> frozenset[int]:
    """Vertices whose closed neighborhood meets `anchors` in exactly one vertex.

    Each such b has a unique anchor t1 in Y: b is adjacent to t1 and
    N[b] - {t1} avoids Y entirely.
    """
    y = frozenset(anchors)
    for v in y:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    out = set()
    for t1 in sorted(y):
        for b in g.adj[t1]:
            if all(w not in y for w in g.closed_neighborhood(b) if w != t1):
                out.add(b)
    return frozenset(out)


def _detach(g: Graph, y: frozenset[int], picked: frozenset[int]) -> Graph:
    """Cut each picked vertex from its anchor; buffer its other edges.

    For every b in `picked` (ascending order, each detachable for `y`): the
    anchor t1 is the smallest Y-neighbor of b; the edge b-t1 is deleted and
    every other edge at b is subdivided once by a fresh vertex, numbered
    past the original n in processing order.
    """
    nbrs: dict[int, set[int]] = {v: set(g.adj[v]) for v in range(g.n)}
    nxt = g.n
    for b in sorted(picked):
        t1 = min(v for v in nbrs[b] if v in y)
        nbrs[b].discard(t1)
        nbrs[t1].discard(b)
        for t2 in sorted(nbrs[b]):
            nbrs[b].discard(t2)
            nbrs[t2].discard(b)
            w = nxt
            nxt += 1
            nbrs[w] = {b, t2}
            nbrs[b].add(w)
            nbrs[t2].add(w)
    adj = tuple(tuple(sorted(nbrs[v])) for v in range(nxt))
    return Graph(nxt, adj)


def check_detach_fact(g: Graph, anchors: Iterable[int], chosen: Iterable[int]) -> AuditVerdict:
    """If Y dominates g minus the chosen vertices, does Y plus the chosen
    dominate the detached transform?

    Vacuous when the hypothesis (domination of the vertex-deleted graph)
    fails.
    """
    y = frozenset(anchors)
    picked = frozenset(chosen)
    allowed = detachable_vertices(g, y)
    if not picked <= allowed:
        bad = sorted(picked - allowed)[0]
        raise ValueError(f"vertex {bad} is not detachable for this anchor set")
    reduced, remap = delete_vertices(g, picked)
    index = {old: new for new, old in enumerate(remap)}
    if not is_dominating(reduced, {index[v] for v in y}):
        return AuditVerdict(
            check=CHECK_DETACH,
            holds=True,
            vacuous=True,
            info={"reason": "anchors do not dominate the vertex-deleted graph"},
        )
    h = _detach(g, y, picked)
    combined = y | picked
    for v in range(h.n):
        if v not in combined and not any(w in combined for w in h.adj[v]):
            return AuditVerdict(
                check=CHECK_DETACH,
                holds=False,
                witness={"undominated": v, "chosen": sorted(picked)},
            )
    return AuditVerdict(check=CHECK_DETACH, holds=True, info={"chosen": len(picked)})


def check_pair_separation(g: Graph, members: Iterable[int]) -> AuditVerdict:
    """For a minimum dominating set with minimal induced edges, every
    induced edge's closed neighborhood must avoid every other member's.

    Callers supply a set from the minimum-edge minimum dominating sets;
    only domination and the degree bound are re-validated here.  Vacuous
    when the set induces no edge or has fewer than three members.
    """
    if g.max_degree() > 3:
        raise ValueError("pair-separation audit requires maximum degree <= 3")
    x = frozenset(members)
    if not is_dominating(g, x):
        raise ValueError("the given set does not dominate the graph")
    inside = sorted(x)
    induced = [(u, v) for u, v in g.edges() if u in x and v in x]
    if not induced or len(x) < 3:
        return AuditVerdict(
            check=CHECK_PAIR_SEPARATION,
            holds=True,
            vacuous=True,
            info={"induced_edges": len(induced), "size": len(x)},
        )
    for v1, v2 in induced:
        hood = g.closed_neighborhood(v1) | g.closed_neighborhood(v2)
        for w in inside:
            if w in (v1, v2):
                continue
            common = sorted(hood & g.closed_neighborhood(w))
            if common:
                return AuditVerdict(
                    check=CHECK_PAIR_SEPARATION,
                    holds=False,
                    witness={"edge": [v1, v2], "member": w, "common": common},
                )
    return AuditVerdict(
        check=CHECK_PAIR_SEPARATION,
        holds=True,
        info={"induced_edges": len(induced), "size": len(x)},
    )
