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
  into every other edge at b.  `check_detach_fact` audits the transform
  for every choice of at most two such vertices at once, as bitmask
  tests on g; no transformed graph is built.  Both tools decide each edge
  or vertex with bit tests on the member mask and the graph's N[v] masks.

Audit results are uniform `AuditVerdict` values, so the sweep harness can
serialize them without knowing the details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .domination import is_dominating, undominated
from .graphs import Edge, Graph, delete_edges, edge_key

@dataclass(frozen=True)
class AuditVerdict:
    """Uniform outcome of a structural audit.

    `witness` carries a JSON-ready counterexample whenever holds is False;
    `vacuous` marks runs whose hypothesis was never satisfied (and implies
    holds).  `info` is free-form JSON-ready reporting.
    """

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


def find_forbidden_core(g: Graph) -> tuple[int, int] | None:
    """Lexicographically first adjacent pair with both degrees >= 3."""
    for v1 in range(g.n):
        if g.degree(v1) < 3:
            continue
        for v2 in g.adj[v1]:
            if v2 > v1 and g.degree(v2) >= 3:
                return (v1, v2)
    return None


def _member_mask(g: Graph, members: Iterable[int]) -> int:
    """Bitmask of `members`; a member outside 0..n-1 raises ValueError."""
    mask = 0
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def removable_edges(g: Graph, members: Iterable[int]) -> frozenset[Edge]:
    """Edges that are individually safe to delete while `members` dominates.

    An edge with one endpoint in X is safe when the outside endpoint keeps
    a second X-neighbour, that is, has at least two; N[w] of an outside w
    meets X in exactly its X-neighbours.
    """
    x = _member_mask(g, members)
    out = set()
    for u, v in g.edges():
        u_in = x >> u & 1
        if u_in == x >> v & 1 or (g.masks[v if u_in else u] & x).bit_count() >= 2:
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
    stranded = undominated(delete_edges(g, chosen), x)
    if stranded:
        first = (stranded & -stranded).bit_length() - 1
        return AuditVerdict(
            holds=False,
            witness={"undominated": first, "removed": sorted(map(list, chosen))},
        )
    return AuditVerdict(holds=True, info={"removed": len(chosen)})


def detachable_vertices(g: Graph, anchors: Iterable[int]) -> frozenset[int]:
    """Vertices whose closed neighborhood meets `anchors` in exactly one vertex.

    Each such b has a unique anchor t1 in Y: b is adjacent to t1 and
    N[b] - {t1} avoids Y entirely.  So b is detachable exactly when b is
    outside Y and has exactly one neighbour in Y.
    """
    y = _member_mask(g, anchors)
    return frozenset(b for b in range(g.n) if not y >> b & 1 and (g.masks[b] & y).bit_count() == 1)


def check_detach_fact(g: Graph, anchors: Iterable[int]) -> AuditVerdict:
    """The detach fact for one anchor set Y and every choice P of at most
    two detachable vertices, in lexicographic order of P.

    The detach transform cuts each b in P from its anchor t1, the one
    vertex of N[b] in Y, and subdivides every other edge at b with a fresh
    buffer vertex.  The fact: if Y dominates g - P, then Y + P dominates
    the transform.  A choice whose hypothesis fails counts as vacuous; the
    verdict is vacuous when every choice is.  `info` counts `transforms`
    (choices audited) and `vacuous`; a failure's witness names the first
    failing `chosen` and its first `undominated` vertex.

    Both sides are bitmask tests, with `cover` = N[Y], the union of the
    members' rows of `g.masks`, and `full` the mask of every vertex:

    * P and Y are disjoint, since N[b] meets Y only in t1 and b != t1.
      The edges between Y and V - P are untouched in g - P, so Y dominates
      g - P iff every vertex outside P is in N[Y]:
      `full & ~P & ~cover == 0`.
    * In the transform every buffer made for b keeps its edge to b, which
      is in P.  An original vertex v outside Y + P keeps each edge to Y
      (no endpoint is in P) and loses each edge to P to a buffer, so its
      neighbours in Y + P are exactly its neighbours in Y.  Hence Y + P
      dominates the transform iff every original vertex outside Y + P is
      in N[Y]: `full & ~(Y | P) & ~cover == 0`.

    Each b is adjacent to its anchor, so P lies in N[Y] as well, and both
    tests hold exactly when Y dominates g: the fact never fails, and a
    choice is vacuous exactly when Y is not dominating.  The audit still
    evaluates both tests for every choice, so its counts and witness are
    those of the audit that builds g - P and the transform as graphs.
    """
    y = tuple(anchors)
    pool = sorted(detachable_vertices(g, y))  # range-checks Y
    full = (1 << g.n) - 1
    ymask = cover = 0
    for v in y:
        ymask |= 1 << v
        cover |= g.masks[v]
    # the choices in lexicographic order: (), (a,), (a, b), (a, c), ..., (b,), ...
    choices = [()]
    for i, a in enumerate(pool):
        choices += [(a,)] + [(a, b) for b in pool[i + 1:]]
    transforms = vacuous = 0
    for chosen in choices:
        p = 0
        for b in chosen:
            p |= 1 << b
        transforms += 1
        if full & ~p & ~cover:
            vacuous += 1
            continue
        stranded = full & ~(ymask | p) & ~cover
        if stranded:
            first = (stranded & -stranded).bit_length() - 1
            return AuditVerdict(
                holds=False,
                witness={"undominated": first, "chosen": list(chosen)},
                info={"transforms": transforms, "vacuous": vacuous},
            )
    info = {"transforms": transforms, "vacuous": vacuous}
    return AuditVerdict(holds=True, vacuous=vacuous == transforms, info=info)


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
            holds=True,
            vacuous=True,
            info={"induced_edges": len(induced), "size": len(x)},
        )
    for v1, v2 in induced:
        hood = g.masks[v1] | g.masks[v2]
        for w in inside:
            if w in (v1, v2):
                continue
            common = hood & g.masks[w]
            if common:
                witness = {"edge": [v1, v2], "member": w,
                           "common": [v for v in range(g.n) if common >> v & 1]}
                return AuditVerdict(holds=False, witness=witness)
    return AuditVerdict(holds=True, info={"induced_edges": len(induced), "size": len(x)})
