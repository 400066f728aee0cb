"""Independent brute-force oracles used only by the tests.

The last section keeps earlier, slower implementations of the exact
kernels verbatim, as differential oracles for the fast ones.
"""

from collections import deque
from itertools import combinations, permutations

from domlab import Graph, is_connected
# `domlab verify` needs this oracle at run time, so its one copy lives there
from domlab.acceptance import _cut_enumeration_connectivity as connectivity_by_cut_enumeration
from domlab.domination import KIND_GAMMA, KIND_IDOM, _certificate, closed_masks


def cycles_by_permutation(g: Graph) -> set[tuple[int, ...]]:
    """Every simple cycle as a canonical tuple, found the dumb way."""
    out = set()
    for size in range(3, g.n + 1):
        for verts in combinations(range(g.n), size):
            rest = verts[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue
                seq = (verts[0],) + perm
                if all(
                    g.has_edge(seq[i], seq[(i + 1) % size]) for i in range(size)
                ):
                    out.add(seq)
    return out


def paths_by_enumeration(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every simple u-v path."""
    out = []

    def walk(path, seen):
        if path[-1] == v:
            out.append(tuple(path))
            return
        for w in g.adj[path[-1]]:
            if w not in seen:
                path.append(w)
                seen.add(w)
                walk(path, seen)
                path.pop()
                seen.remove(w)

    walk([u], {u})
    return out


def dominating_sets_of_size(g: Graph, k: int) -> list[frozenset[int]]:
    out = []
    for combo in combinations(range(g.n), k):
        covered = set(combo)
        for x in combo:
            covered.update(g.adj[x])
        if len(covered) == g.n:
            out.append(frozenset(combo))
    return out


def idom_by_enumeration(g: Graph) -> int:
    """Size of a smallest independent dominating set."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            inside = set(combo)
            if any(u in inside for v in combo for u in g.adj[v]):
                continue
            covered = set(combo)
            for x in combo:
                covered.update(g.adj[x])
            if len(covered) == g.n:
                return k
    raise AssertionError("unreachable: a maximal independent set dominates")


# --- earlier exact kernels -------------------------------------------------


def _disjoint_paths_dict(g: Graph, s: int, t: int, cap: int) -> int:
    """Disjoint s-t paths by unit-capacity flow on an (a, b)-keyed dict."""
    big = g.n
    capacity: dict[tuple[int, int], int] = {}

    def arc(a: int, b: int, c: int) -> None:
        capacity[(a, b)] = capacity.get((a, b), 0) + c
        capacity.setdefault((b, a), 0)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in g.edges():
        arc(2 * u + 1, 2 * v, 1)
        arc(2 * v + 1, 2 * u, 1)

    succ: dict[int, list[int]] = {}
    for a, b in capacity:
        succ.setdefault(a, []).append(b)
    for a in succ:
        succ[a].sort()

    src, dst = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent = {src: src}
        queue = deque([src])
        while queue and dst not in parent:
            a = queue.popleft()
            for b in succ.get(a, ()):
                if b not in parent and capacity[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if dst not in parent:
            break
        b = dst
        while b != src:
            a = parent[b]
            capacity[(a, b)] -= 1
            capacity[(b, a)] += 1
            b = a
        flow += 1
    return flow


def vertex_connectivity_all_pairs(g: Graph) -> int:
    """Minimum over all non-adjacent pairs of the disjoint-path count."""
    if g.n == 0:
        raise ValueError("vertex connectivity needs at least one vertex")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    best = g.n - 1
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _disjoint_paths_dict(g, s, t, best))
    return best


def _greedy_cover(g: Graph, masks: list[int], full: int) -> list[int]:
    chosen: list[int] = []
    dominated = 0
    while dominated != full:
        best_v = -1
        best_gain = -1
        for v in range(g.n):
            gain = (masks[v] & ~dominated).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen.append(best_v)
        dominated |= masks[best_v]
    return chosen


def _packing_bound(g: Graph, masks: list[int], dominated: int) -> int:
    packed = 0
    count = 0
    for v in range(g.n):
        if not (dominated >> v) & 1 and not (masks[v] & packed):
            packed |= masks[v]
            count += 1
    return count


def gamma_exact_packing(g: Graph):
    """Branch and bound for gamma pruned by the packing bound alone."""
    if g.n == 0:
        return _certificate(g, (), KIND_GAMMA)
    masks = closed_masks(g)
    full = (1 << g.n) - 1
    by_degree = sorted(range(g.n), key=lambda v: (len(g.adj[v]), v))
    best = _greedy_cover(g, masks, full)

    def search(chosen: list[int], dominated: int) -> None:
        nonlocal best
        if dominated == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + _packing_bound(g, masks, dominated) >= len(best):
            return
        u = next(v for v in by_degree if not (dominated >> v) & 1)
        for c in sorted((u, *g.adj[u])):
            chosen.append(c)
            search(chosen, dominated | masks[c])
            chosen.pop()

    search([], 0)
    return _certificate(g, best, KIND_GAMMA)


def idom_exact_packing(g: Graph):
    """Branch and bound for i pruned by the packing bound alone."""
    if g.n == 0:
        return _certificate(g, (), KIND_IDOM)
    masks = closed_masks(g)
    nbr_masks = [masks[v] ^ (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1

    best: list[int] = []
    dominated = 0
    for v in range(g.n):
        if not (dominated >> v) & 1:
            best.append(v)
            dominated |= masks[v]

    def search(chosen: list[int], chosen_mask: int, dominated: int) -> None:
        nonlocal best
        if dominated == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + _packing_bound(g, masks, dominated) >= len(best):
            return
        u = next(v for v in range(g.n) if not (dominated >> v) & 1)
        for c in sorted((u, *g.adj[u])):
            if nbr_masks[c] & chosen_mask:
                continue
            chosen.append(c)
            search(chosen, chosen_mask | (1 << c), dominated | masks[c])
            chosen.pop()

    search([], 0, 0)
    return _certificate(g, best, KIND_IDOM)

