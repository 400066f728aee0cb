"""Exact domination and independent-domination solvers.

Two routes to the domination number: `gamma_bruteforce` is the oracle
(exhaustive subset search, guarded to small n), `gamma_exact` is the
branch-and-bound solver expected to match it everywhere.  All solvers are
deterministic: fixed branch orders, least-id tie-breaking.

The branch-and-bound solvers prune with the larger of a packing bound and
a fractional-cover bound, and branch on the undominated vertex with the
fewest candidate dominators, one being a forced move (after van Rooij and
Bodlaender, "Exact algorithms for dominating set", 2011, and Fomin,
Grandoni and Kratsch, "A measure & conquer approach", 2009).  Their
certificates are minimum and deterministic, not lexicographically least.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import lcm
from typing import Callable, Iterable, Iterator

from .graphs import Graph

BRUTE_FORCE_LIMIT = 24
# largest n `enumerate_min_dsets` runs on; the checks' enumeration gate reads it
ENUM_GUARD = 24


class SolverTimeout(Exception):
    """Raised when a search exceeds its deadline; `phase` names the search."""

    def __init__(self, phase: str) -> None:
        super().__init__(phase)  # args hold the phase alone, so it pickles
        self.phase = phase

    def __str__(self) -> str:
        return f"{self.phase} exceeded its budget"


def check_deadline(deadline: float | None, phase: str) -> None:
    """Raise `SolverTimeout` naming `phase` once `deadline`, a
    `time.monotonic()` value, has passed; None never expires."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout(phase)


@dataclass(frozen=True)
class DominationCertificate:
    """A dominating set and its size."""

    members: frozenset[int]
    size: int


def undominated(g: Graph, members: Iterable[int]) -> int:
    """Bitmask of the vertices outside the closed neighborhood of `members`;
    a member outside 0..n-1 raises ValueError."""
    cover = 0
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        cover |= g.masks[v]
    return ((1 << g.n) - 1) & ~cover


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """True iff the closed neighborhood of `members` covers every vertex."""
    return not undominated(g, members)


def induced_edge_count(g: Graph, members: Iterable[int]) -> int:
    """Number of edges inside the induced subgraph on `members`."""
    inside = set(members)
    mask = sum(1 << v for v in inside)
    # each member's N[v] meets the set in v and its neighbours inside it
    return sum((g.masks[v] & mask).bit_count() - 1 for v in inside) // 2


def _certificate(g: Graph, members: Iterable[int], independent: bool = False) -> DominationCertificate:
    chosen = frozenset(members)
    if not is_dominating(g, chosen):
        raise AssertionError("internal error: certificate set does not dominate")
    if independent and induced_edge_count(g, chosen):
        raise AssertionError("internal error: idom certificate is not independent")
    return DominationCertificate(members=chosen, size=len(chosen))


def _dominating_sets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Every dominating k-set of g, in lexicographic order."""
    masks = g.masks
    full = (1 << g.n) - 1
    for combo in combinations(range(g.n), k):
        cover = 0
        for v in combo:
            cover |= masks[v]
        if cover == full:
            yield combo


def gamma_bruteforce(g: Graph) -> DominationCertificate:
    """Minimum dominating set by exhaustive search in increasing size.

    The witness is the lexicographically smallest minimum set.  Guarded to
    n <= 24; this is the test oracle for gamma_exact.  The sizes start at
    ceil(n / (max degree + 1)), as each member dominates at most that many.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute-force solver is guarded to n <= {BRUTE_FORCE_LIMIT}")
    sizes = range(-(-g.n // (g.max_degree() + 1)), g.n + 1)
    # the whole vertex set dominates, so some size has a first hit
    return _certificate(g, next(chain.from_iterable(_dominating_sets(g, k) for k in sizes)))


def _greedy_cover(masks: tuple[int, ...]) -> list[int]:
    full = (1 << len(masks)) - 1
    chosen: list[int] = []
    dominated = 0
    while dominated != full:
        best_v = -1
        best_gain = -1
        for v in range(len(masks)):
            gain = (masks[v] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        dominated |= masks[best_v]
    return chosen


def _first_independent(masks: tuple[int, ...]) -> list[int]:
    """The lexicographically first maximal independent set."""
    chosen: list[int] = []
    dominated = 0
    for v in range(len(masks)):
        if not (dominated >> v) & 1:
            chosen.append(v)
            dominated |= masks[v]
    return chosen


def _lower_bound(
    masks: tuple[int, ...],
    closed: list[tuple[int, ...]],
    undominated: int,
    admissible: int,
    scale: int,
    need: int,
) -> int:
    """Lower bound on the dominators still needed for `undominated`.

    The larger of two bounds.  Packing: undominated vertices with pairwise
    disjoint closed neighborhoods each need their own dominator.
    Fractional cover: a dominator c covers gain(c) = |N[c] & undominated|
    vertices, so charging each undominated u 1 / (max gain over the
    admissible c in N[u]) never charges more than the dominators used.
    Only members of `admissible` may be dominators; `scale` is a common
    multiple of every possible gain, so the sum is exact in integers.
    Returns min(bound, need), stopping as soon as the bound reaches `need`.
    """
    packed = 0
    count = 0
    charge = 0
    limit = (need - 1) * scale
    rest = undominated
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        if not masks[u] & packed:
            packed |= masks[u]
            count += 1
            if count >= need:
                return need
        top = 0
        for c in closed[u]:
            if admissible >> c & 1:
                gain = (masks[c] & undominated).bit_count()
                if gain > top:
                    top = gain
        charge += scale // top
        if charge > limit:
            return need
    return max(count, -(-charge // scale))


def _search_tables(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]], int]:
    """Closed-neighborhood masks, sorted closed neighborhoods, and the
    least common multiple of 1..max degree + 1 (every possible gain)."""
    closed = [tuple(sorted((v, *g.adj[v]))) for v in range(g.n)]
    return g.masks, closed, lcm(*range(1, g.max_degree() + 2))


def _gamma_branch(masks: tuple[int, ...], closed: list[tuple[int, ...]], undominated: int) -> list[int]:
    """The useful candidates of the undominated vertex that has fewest
    (least id among ties; the scan stops at one, a forced move).

    A candidate c in N[u] covers N[c] & undominated; it is useful unless
    its cover lies inside the cover of another candidate in N[u], and of
    equal covers only the least id is.  They come in decreasing cover
    size, least id first.
    """
    cover = [m & undominated for m in masks]
    order = [-x.bit_count() for x in cover]
    pick: list[int] = []
    fewest = len(masks) + 2  # len(kept) + 1 never reaches it: the first vertex is taken
    rest = undominated
    while rest:
        low = rest & -rest
        rest ^= low
        # in decreasing cover size, a candidate is useful unless a useful one
        # before it holds its cover; stop once u cannot beat `fewest`
        kept: list[int] = []
        held: list[int] = []
        for c in sorted(closed[low.bit_length() - 1], key=order.__getitem__):
            x = cover[c]
            for y in held:
                if x | y == y:
                    break
            else:
                if len(kept) + 1 == fewest:
                    break
                kept.append(c)
                held.append(x)
        else:
            pick = kept
            fewest = len(kept)
            if fewest == 1:
                break
    return pick


def _idom_branch(masks: tuple[int, ...], closed: list[tuple[int, ...]], undominated: int) -> list[int]:
    """The admissible candidates of the undominated vertex that has fewest
    (least id among ties; the scan stops at one, a forced move).

    With dominated == N[chosen], the admissible candidates of u are
    N[u] & undominated.  They come in decreasing cover size (N[c] &
    undominated), least id first.
    """
    pick = -1
    fewest = len(masks) + 1
    rest = undominated
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        size = (masks[u] & undominated).bit_count()
        if size < fewest:
            pick = u
            fewest = size
            if size == 1:
                break
    return sorted((c for c in closed[pick] if undominated >> c & 1),
                  key=lambda c: -(masks[c] & undominated).bit_count())


def _branch_and_bound(
    g: Graph,
    start: Callable[[tuple[int, ...]], list[int]],
    branch: Callable[[tuple[int, ...], list[tuple[int, ...]], int], list[int]],
    stay: int,
    floor: int,
    deadline: float | None,
    phase: str,
) -> list[int]:
    """A least dominating set of admissible dominators.

    A vertex is admissible while undominated or in `stay`: with every
    vertex in `stay` this is plain domination, and with `stay` = 0 only
    vertices outside N[chosen] may join, which keeps the chosen set
    independent.  The incumbent starts as `start(masks)`.  A node stops
    once the incumbent has size `floor`, a known lower bound; a leaf
    replaces a larger incumbent; otherwise the node is pruned when the
    chosen count plus `_lower_bound` over the admissible vertices reaches
    the incumbent, and else it tries each candidate of `branch`.

    The result is deterministic and minimum, not lexicographically least:
    the first leaf of the least size in this branch order, or the start
    set when that is already minimum.  A valid bound never prunes the
    ancestors of a leaf smaller than the incumbent, so it does not change
    the result.  `deadline` is read every 1,024 nodes.
    """
    masks, closed, scale = _search_tables(g)
    full = (1 << g.n) - 1
    best = start(masks)
    ticks = 0

    def search(chosen: list[int], dominated: int) -> None:
        nonlocal best, ticks
        if len(best) == floor:
            return
        ticks += 1
        if ticks % 1024 == 0:
            check_deadline(deadline, phase)
        if dominated == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        undominated = full ^ dominated
        need = len(best) - len(chosen)
        if _lower_bound(masks, closed, undominated, undominated | stay, scale, need) >= need:
            return
        for c in branch(masks, closed, undominated):
            chosen.append(c)
            search(chosen, dominated | masks[c])
            chosen.pop()

    search([], 0)
    return best


def gamma_exact(g: Graph, *, deadline: float | None = None) -> DominationCertificate:
    """Branch-and-bound minimum dominating set (see `_branch_and_bound`).

    Greedy cover supplies the initial incumbent, and every vertex is an
    admissible dominator.  Each node branches on the undominated vertex u
    with the fewest useful candidates (see `_gamma_branch`), skipping each
    c in N[u] whose cover N[c] & undominated lies inside another
    candidate's; a vertex with one useful candidate is a forced move.

    Skipping loses no minimum set: some member of every completion
    dominates u, and a skipped one can be swapped for the candidate whose
    cover holds its own, which keeps the size and dominates every vertex.
    `deadline` is also read on entry.
    """
    check_deadline(deadline, "domination solve")
    full = (1 << g.n) - 1
    best = _branch_and_bound(g, _greedy_cover, _gamma_branch, full, 0, deadline, "domination solve")
    return _certificate(g, best)


def idom_exact(
    g: Graph, *, deadline: float | None = None, gamma: DominationCertificate | None = None
) -> DominationCertificate:
    """Minimum maximal independent set (independent domination number).

    The search of `_branch_and_bound` with the independence constraint
    folded in: a candidate dominator must not be adjacent to the chosen
    set, that is, it must lie outside N[chosen], so the bound admits only
    those.  Each node branches on the undominated vertex with the fewest
    admissible candidates (see `_idom_branch`); one is a forced move.
    None is skipped by cover containment, as the swap that allows it for
    gamma can break independence.  The initial incumbent is the
    lexicographically first maximal independent set.

    `gamma`, if given, must be a minimum dominating set of g, such as
    `gamma_exact(g)`, as `enumerate_min_dsets`' `gamma` must be gamma(g).
    Since gamma <= i, an independent `gamma` is returned with no search,
    and otherwise the search stops once the incumbent has its size.

    The certificate is minimum and deterministic; with `gamma` it may
    differ from the one without.  `deadline` is also read on entry.
    """
    check_deadline(deadline, "independent domination solve")
    if gamma is not None and not induced_edge_count(g, gamma.members):
        return _certificate(g, gamma.members, independent=True)
    floor = gamma.size if gamma is not None else 0
    best = _branch_and_bound(
        g, _first_independent, _idom_branch, 0, floor, deadline, "independent domination solve"
    )
    return _certificate(g, best, independent=True)


@dataclass(frozen=True)
class DsetEnumeration:
    """All minimum dominating sets in lexicographic order, maybe truncated."""

    dsets: tuple[frozenset[int], ...]
    truncated: bool


def enumerate_min_dsets(g: Graph, gamma: int, limit: int | None = None) -> DsetEnumeration:
    """Every dominating set of minimum cardinality, lexicographic order.

    `gamma` must be gamma(g), e.g. `gamma_exact(g).size`; the sets of that
    size that dominate are listed, at most `limit` of them, and the result
    is truncated when a further one exists.
    """
    if g.n > ENUM_GUARD:
        raise ValueError(f"enumeration is guarded to n <= {ENUM_GUARD}")
    hits = list(islice(_dominating_sets(g, gamma), None if limit is None else limit + 1))
    truncated = limit is not None and len(hits) > limit
    return DsetEnumeration(tuple(frozenset(c) for c in hits[:limit]), truncated)
