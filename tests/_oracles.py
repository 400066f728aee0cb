"""Independent brute-force oracles used only by the tests.

`domination_by_frontier_dp` gives gamma and i by dynamic programming
over a vertex order, sharing no code or idea with the branch-and-bound.
The last sections keep earlier, slower implementations of the cycle
listing (which walks every cycle both ways), of the exact
kernels (the gamma branch list rescanned at every node among them), of
the seamless link test (which builds each link's ear and
replaced arc as an `EarLink`) and link replay, of the seamless
families and their pruning (with their own walk of a link-pair list),
of the mark search (without its cap) and the family audit's candidate
test, of edge deletion, of the surgery tools' set-based edge and vertex
tests, of the detach audit and of the pair-separation check that tests
every kept set, as differential oracles for the code that replaced them.
`family_fault` checks a family's cycles and links against the
definition of a link.
"""

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, permutations

from domlab import Cycle, Graph, is_connected, is_dominating
# `domlab verify` needs this oracle at run time, so its one copy lives there
from domlab.acceptance import _cut_enumeration_connectivity as connectivity_by_cut_enumeration
from domlab.domination import _certificate
from domlab.graphs import Edge, _disjoint_paths, _split_network, edge_key
from domlab.reduction import AuditVerdict, check_pair_separation
from domlab.seams import CycleCollection, try_ear_link


def cycle_from_sequence(seq) -> Cycle:
    """The canonical `Cycle` of any rotation or direction of a vertex cycle."""
    seq = tuple(seq)
    pivot = seq.index(min(seq))
    rotated = seq[pivot:] + seq[:pivot]
    if rotated[1] > rotated[-1]:
        rotated = rotated[:1] + tuple(reversed(rotated[1:]))
    return Cycle(rotated)


def closed_masks(g: Graph) -> list[int]:
    """Bitmask of N[v] per vertex, built from the adjacency rows; it shares
    nothing with `Graph.masks`."""
    masks = []
    for v in range(g.n):
        m = 1 << v
        for u in g.adj[v]:
            m |= 1 << u
        masks.append(m)
    return masks


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


def has_mark_every_third(cycle: Cycle, marks) -> bool:
    """True iff marked vertices occupy exactly one residue class of the
    cycle's positions mod 3 (one mark per three consecutive vertices)."""
    size = len(cycle)
    if size % 3:
        raise ValueError("cycle length must be divisible by 3")
    chosen = set(marks)
    hit = [i % 3 for i, v in enumerate(cycle.vertices) if v in chosen]
    return len(hit) == size // 3 and len(set(hit)) == 1


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


def vertex_connectivity_even(g: Graph) -> int:
    """Vertex connectivity by Even's source restriction: flows from each
    source v_s to every later non-adjacent vertex, while s < the least
    count so far (the first vertex outside a minimum separator has index
    at most kappa)."""
    if g.n == 0:
        raise ValueError("vertex connectivity needs at least one vertex")
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    network = _split_network(g)
    best = min(len(row) for row in g.adj)
    s = 0
    while s < best:
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _disjoint_paths(network, s, t, best))
        s += 1
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
        return _certificate(g, ())
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
    return _certificate(g, best)


def idom_exact_packing(g: Graph):
    """Branch and bound for i pruned by the packing bound alone."""
    if g.n == 0:
        return _certificate(g, (), independent=True)
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
    return _certificate(g, best, independent=True)



# --- dynamic programming over a vertex order ---------------------------------
# Shares no code or idea with the branch-and-bound solvers: no bound, no
# branching on a vertex, no bitmask (after Telle and Proskurowski, SIAM J.
# Discrete Math. 10, 1997).

IN, DOMINATED, OPEN = 0, 1, 2


def least_frontier_order(g: Graph) -> list[int]:
    """A vertex order of small width, the most placed vertices that have
    an unplaced neighbour after any placement.

    From each start vertex the order places next the unplaced vertex that
    leaves the fewest such vertices, then the one with fewest unplaced
    neighbours, then the least id; of those orders the one of least width
    is kept, least start among ties.
    """
    best: list[int] = list(range(g.n))
    best_width = g.n + 1
    for start in range(g.n):
        left = [len(row) for row in g.adj]  # unplaced neighbours
        placed = [False] * g.n
        order: list[int] = []
        frontier = width = 0
        v = start
        while True:
            placed[v] = True
            order.append(v)
            for w in g.adj[v]:
                left[w] -= 1
                if placed[w] and not left[w]:
                    frontier -= 1
            frontier += left[v] > 0
            width = max(width, frontier)
            if width >= best_width or len(order) == g.n:
                break
            v = min((u for u in range(g.n) if not placed[u]),
                    key=lambda u: ((left[u] > 0) - sum(placed[w] and left[w] == 1 for w in g.adj[u]),
                                   left[u], u))
        if width < best_width:
            best, best_width = order, width
    return best


def domination_by_frontier_dp(g: Graph, independent: bool = False, count: bool = False) -> int:
    """gamma(g), or i(g) when `independent`, by dynamic programming over
    `least_frontier_order`; with `count`, the number of minimum (independent)
    dominating sets instead.

    A state gives each frontier vertex (placed, with an unplaced neighbour)
    one of IN (in the set D), DOMINATED (out of D, with a placed neighbour
    in D) or OPEN, and holds the fewest members of D among the placed
    vertices, with the number of placed sets D that reach the state with
    that few.  Placing v either puts it in D, which dominates its placed
    neighbours, or leaves it DOMINATED or OPEN by its placed neighbours.
    A vertex leaves the frontier once its last neighbour is placed, and
    only when it is not OPEN.  With `independent`, v joins D only when no
    placed neighbour is in D.  Each set D takes one path of choices, so
    the counts add up without repeats.
    """
    order = least_frontier_order(g)
    pos = {v: i for i, v in enumerate(order)}
    # the step after which v has no unplaced neighbour
    last = {v: max([pos[v]] + [pos[w] for w in g.adj[v]]) for v in range(g.n)}
    frontier: list[int] = []
    states = {(): (0, 1)}
    for i, v in enumerate(order):
        near = [j for j, w in enumerate(frontier) if g.has_edge(v, w)]
        keep = [j for j, w in enumerate(frontier) if last[w] > i]
        leave = [j for j, w in enumerate(frontier) if last[w] <= i]
        stays = last[v] > i
        after: dict[tuple[int, ...], tuple[int, int]] = {}
        for state, (size, ways) in states.items():
            seen = any(state[j] == IN for j in near)
            for join in (False, True):
                if join and independent and seen:
                    continue
                codes = list(state)
                if join:
                    for j in near:
                        if codes[j] == OPEN:
                            codes[j] = DOMINATED
                    mine = IN
                else:
                    mine = DOMINATED if seen else OPEN
                if any(codes[j] == OPEN for j in leave) or (mine == OPEN and not stays):
                    continue
                key = tuple(codes[j] for j in keep) + ((mine,) if stays else ())
                best, total = after.get(key, (g.n + 1, 0))
                if size + join < best:
                    after[key] = (size + join, ways)
                elif size + join == best:
                    after[key] = (best, total + ways)
        frontier = [frontier[j] for j in keep] + ([v] if stays else [])
        states = after
    size, ways = states[()]
    return ways if count else size


def gamma_branch_rescanned(g: Graph, undominated: int) -> list[int]:
    """The branch list of `domination._gamma_branch` as it was before the
    lists were handed down the search: every node rescans every candidate
    of every undominated vertex it reaches.

    The useful candidates of the undominated vertex that has fewest (least
    id among ties; the scan stops at one, a forced move).  A candidate c in
    N[u] covers N[c] & undominated; it is useful unless its cover lies
    inside the cover of another candidate in N[u], and of equal covers only
    the least id is.  They come in decreasing cover size, least id first.
    """
    masks = closed_masks(g)
    closed = [sorted((v, *row)) for v, row in enumerate(g.adj)]
    cover = [m & undominated for m in masks]
    order = [-x.bit_count() for x in cover]
    pick: list[int] = []
    fewest = len(masks) + 2  # len(kept) + 1 never reaches it: the first vertex is taken
    rest = undominated
    while rest:
        low = rest & -rest
        rest ^= low
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


def useful_candidates(g: Graph, u: int, undominated: set[int]) -> list[int]:
    """The useful candidates of u by the sets they cover: c in N[u] is
    useful unless another candidate covers a strict superset of its cover,
    or the same cover with a lesser id; in decreasing cover size, least id
    first."""
    near = sorted((u, *g.adj[u]))
    cover = {c: {c, *g.adj[c]} & undominated for c in near}
    kept = [c for c in near
            if not any(cover[c] < cover[d] or cover[c] == cover[d] and d < c for d in near)]
    return sorted(kept, key=lambda c: (-len(cover[c]), c))


# --- earlier cycle listing: every cycle walked both ways --------------------


def all_simple_cycles_both_ways(g: Graph) -> list[Cycle]:
    """The earlier cycle listing: every cycle is walked in both directions
    from its smallest vertex s, and the direction whose second vertex is
    smaller than its last is kept when the walk closes back at s."""
    found: list[Cycle] = []
    path: list[int] = []
    on_path: set[int] = set()

    def extend(s: int, v: int) -> None:
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


# --- earlier link test and link replay -------------------------------------


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
    return cycle_from_sequence(walk)


def _cycle_edges(c: Cycle) -> list[Edge]:
    return _path_edges(c.vertices + c.vertices[:1])


def replay_link_by_edge_sets(base: Cycle, link: EarLink) -> Cycle | None:
    """Rebuild the derived cycle from base, ear and replaced arc."""
    edges = set(_cycle_edges(base))
    swapped = set(_path_edges(link.replaced_arc))
    if not swapped <= edges:
        return None
    edges -= swapped
    edges |= set(_path_edges(link.ear))
    return _cycle_from_edge_set(edges)


def ear_fault(base: Cycle, derived: Cycle, link: EarLink) -> str | None:
    """The first way `link` fails to derive `derived` from `base`, or None.

    Read from the definition alone, with no `seams` code: the ear is a
    simple path whose interior avoids base; the replaced arc is a simple
    path of base edges between the ear's ends; and swapping the arc's
    edges for the ear's rebuilds the derived cycle.
    """
    ear, arc = link.ear, link.replaced_arc
    if len(set(ear)) != len(ear) or set(ear[1:-1]) & set(base.vertices):
        return f"ear {ear} is no simple path whose interior avoids {base.vertices}"
    if (
        (arc[0], arc[-1]) != (ear[0], ear[-1])
        or len(set(arc)) != len(arc)
        or not set(_path_edges(arc)) <= set(_cycle_edges(base))
    ):
        return f"replaced arc {arc} is no path of edges of {base.vertices} between {ear[0]} and {ear[-1]}"
    if replay_link_by_edge_sets(base, link) != derived:
        return f"swapping {arc} for {ear} in {base.vertices} does not rebuild {derived.vertices}"
    return None


def family_fault(cycles, links) -> str | None:
    """The first way `cycles` with the index pairs `links` break the
    definition of a seamless family, or None when they meet it.

    Each link (a, b) must lead from cycle a to cycle b: the split oracle
    `try_ear_link_by_splits`, which shares no code with `seams`, builds
    its ear and replaced arc, and `ear_fault` checks them.  The links
    must also connect all the cycles.
    """
    for a, b in links:
        base, derived = cycles[a], cycles[b]
        link = try_ear_link_by_splits(base, derived, a, b)
        if link is None:
            return f"no ear leads from {base.vertices} to {derived.vertices}"
        fault = ear_fault(base, derived, link)
        if fault is not None:
            return fault
    nbrs: dict[int, set[int]] = {i: set() for i in range(len(cycles))}
    for a, b in links:
        nbrs[a].add(b)
        nbrs[b].add(a)
    reached, queue = {0}, deque([0])
    while queue:
        for j in nbrs[queue.popleft()] - reached:
            reached.add(j)
            queue.append(j)
    if len(reached) != len(cycles):
        return f"links reach {len(reached)} of the {len(cycles)} cycles"
    return None


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


def try_ear_link_by_splits(base: Cycle, derived: Cycle, base_index: int, derived_index: int) -> EarLink | None:
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


# --- earlier seamless families ---------------------------------------------


def link_components_by_pairs(members, pairs) -> list[list[int]]:
    """Connected components of the link graph given as a pair list.

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


def links_by_pair_tests(cycles, members=None) -> list[tuple[int, int]]:
    """The linked pairs a < b among `members` (default: every cycle),
    one `try_ear_link` test per pair."""
    members = range(len(cycles)) if members is None else members
    return [(a, b) for a, b in combinations(members, 2) if try_ear_link(cycles[a], cycles[b], a, b)]


def seamless_families_by_pair_tests(cycles):
    """(family, links) per family, from one `try_ear_link` test per cycle
    pair a < b; the links index the family's cycles, in pair order."""
    links = links_by_pair_tests(cycles)
    families = []
    for order in link_components_by_pairs(range(len(cycles)), links):
        members = sorted(order)
        pos = {i: li for li, i in enumerate(members)}
        own = tuple((pos[a], pos[b]) for a, b in links if a in pos)
        families.append((CycleCollection(tuple(cycles[i] for i in members)), own))
    return tuple(families)


def _collection_from(cycles, indexes, pair_link):
    local = [cycles[i] for i in indexes]
    pos = {gi: li for li, gi in enumerate(indexes)}
    links = []
    for a in range(len(indexes)):
        for b in range(a + 1, len(indexes)):
            link = pair_link(indexes[a], indexes[b])
            if link is not None:
                links.append((pos[link.base], pos[link.derived]))
    return CycleCollection(tuple(local)), tuple(links)


def _pair_link_memo(cycles):
    """Link of an unordered pair, testing both directions, memoized."""
    memo = {}

    def pair_link(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in memo:
            a, b = key
            memo[key] = try_ear_link_by_splits(
                cycles[a], cycles[b], a, b
            ) or try_ear_link_by_splits(cycles[b], cycles[a], b, a)
        return memo[key]

    return pair_link


def seamless_families_greedy(cycles):
    """(family, links) per family, grown greedily from every seed to a
    fixpoint and deduplicated; links are tested both ways by the split
    oracle, in pair order."""
    cycles = list(cycles)
    if not cycles:
        return ()
    pair_link = _pair_link_memo(cycles)
    seen = set()
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
            families.append(_collection_from(cycles, sorted(fam), pair_link))
    return tuple(families)


def prune_nonexclusive_relinking(col):
    """Pruning that tests the links between the survivors again.

    Groups are tuples of cycles, each in BFS order from its smallest
    cycle with neighbours taken in ascending order.
    """
    survivors = list(col.cycles)
    while len(survivors) > 1:
        lacking = []
        for c in survivors:
            others = set()
            for d in survivors:
                if d is not c:
                    others.update(d.vertices)
            if not set(c.vertices) - others:
                lacking.append(c)
        if not lacking:
            break
        survivors.remove(min(lacking, key=lambda c: c.vertices))
    pair_link = _pair_link_memo(survivors)
    k = len(survivors)
    nbrs = {i: set() for i in range(k)}
    for i in range(k):
        for j in range(i + 1, k):
            if pair_link(i, j) is not None:
                nbrs[i].add(j)
                nbrs[j].add(i)
    out = []
    seen = set()
    for start in range(k):
        if start in seen:
            continue
        order = [start]
        queue = deque([start])
        seen.add(start)
        while queue:
            i = queue.popleft()
            for j in sorted(nbrs[i]):
                if j not in seen:
                    seen.add(j)
                    order.append(j)
                    queue.append(j)
        out.append(tuple(survivors[i] for i in order))
    return tuple(out)


# --- earlier pruning: recount after every drop -------------------------------


def _without_exclusive(cycles):
    """Indexes of the cycles all of whose vertices lie on another cycle."""
    uses = Counter(v for c in cycles for v in c.vertices)
    return [i for i, c in enumerate(cycles) if all(uses[v] > 1 for v in c.vertices)]


def prune_nonexclusive_by_fixpoint(fam):
    """Pruning to a fixpoint: the lexicographically smallest cycle owning
    no exclusive vertex is dropped, one at a time, recounting every
    vertex use after each drop; survivors are regrouped by the links
    among them."""
    kept = list(range(len(fam.cycles)))
    while len(kept) > 1:
        lacking = _without_exclusive([fam.cycles[i] for i in kept])
        if not lacking:
            break
        del kept[min(lacking, key=lambda li: fam.cycles[kept[li]].vertices)]
    links = links_by_pair_tests(fam.cycles, kept)
    return tuple(tuple(fam.cycles[i] for i in order) for order in link_components_by_pairs(kept, links))


# --- earlier mark search: backtracking over residue classes -----------------


def spaced_assignments_by_search(cycles) -> tuple[frozenset[int], ...]:
    """Every mark set spaced on all the given cycles, sorted: backtracking
    over one residue-class choice per cycle, in any cycle order and with
    no cap.  A vertex shared by two cycles must be marked the same way on
    both."""
    decided: dict[int, bool] = {}
    found: set[frozenset[int]] = set()

    def place(idx: int) -> None:
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
    return tuple(sorted(found, key=sorted))


def in_link_order(fam) -> tuple:
    """A family's cycles in link-graph BFS order from its first cycle, so
    each cycle after the first is linked to an earlier one."""
    [order] = link_components_by_pairs(range(len(fam.cycles)), links_by_pair_tests(fam.cycles))
    return tuple(fam.cycles[i] for i in order)


def family_candidate_by_domination_tests(g: Graph, groups):
    """The family audit's best (size, sorted candidate), or None, from
    adjacency sets: each mark set plus the lone vertices it leaves
    undominated, kept when `is_dominating` accepts it."""
    best = None
    for family in groups:
        for group, assignments in family:
            union = {v for c in group for v in c.vertices}
            lone = [r for r in range(g.n) if r not in union and set(g.adj[r]) <= union]
            for chosen in assignments:
                reached = set(chosen).union(*(g.adj[v] for v in chosen))
                candidate = set(chosen).union(r for r in lone if r not in reached)
                if is_dominating(g, candidate):
                    key = (len(candidate), sorted(candidate))
                    if best is None or key < best:
                        best = key
    return best


# --- earlier edge deletion: every row rebuilt --------------------------------


def delete_edges_by_full_rebuild(g: Graph, edges) -> Graph:
    """Same vertices, edges minus `edges`; non-edges are rejected."""
    doomed = set()
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"{u}-{v} is not an edge")
        doomed.add(edge_key(u, v))
    adj = tuple(
        tuple(u for u in row if edge_key(v, u) not in doomed)
        for v, row in enumerate(g.adj)
    )
    return Graph(g.n, adj)


# --- earlier surgery tools: frozensets and closed neighbourhoods -----------


def removable_edges_by_sets(g: Graph, members) -> frozenset[Edge]:
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


def detachable_vertices_by_sets(g: Graph, anchors) -> frozenset[int]:
    """Vertices whose closed neighborhood meets `anchors` in exactly one vertex."""
    y = frozenset(anchors)
    for v in y:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    out = set()
    for t1 in sorted(y):
        for b in g.adj[t1]:
            if all(w not in y for w in (b, *g.adj[b]) if w != t1):
                out.add(b)
    return frozenset(out)


# --- earlier detach audit: both graphs built per choice -------------------


def delete_vertices(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the surviving vertices.

    Returns (graph, remap) where remap[new_id] = original_id; surviving
    vertices are renumbered densely in increasing original order.
    """
    doomed = set(vertices)
    for v in doomed:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    remap = tuple(v for v in range(g.n) if v not in doomed)
    index = {old: new for new, old in enumerate(remap)}
    adj = tuple(
        tuple(index[u] for u in g.adj[old] if u not in doomed) for old in remap
    )
    return Graph(len(remap), adj), remap


def detach_transform(g: Graph, y: frozenset[int], picked: frozenset[int]) -> Graph:
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


def check_detach_choice(g: Graph, anchors, chosen) -> AuditVerdict:
    """If Y dominates g minus the chosen vertices, does Y plus the chosen
    dominate the detached transform?

    Vacuous when the hypothesis (domination of the vertex-deleted graph)
    fails.
    """
    y = frozenset(anchors)
    picked = frozenset(chosen)
    allowed = detachable_vertices_by_sets(g, y)
    if not picked <= allowed:
        bad = sorted(picked - allowed)[0]
        raise ValueError(f"vertex {bad} is not detachable for this anchor set")
    reduced, remap = delete_vertices(g, picked)
    index = {old: new for new, old in enumerate(remap)}
    if not is_dominating(reduced, {index[v] for v in y}):
        return AuditVerdict(
            holds=True,
            vacuous=True,
            info={"reason": "anchors do not dominate the vertex-deleted graph"},
        )
    h = detach_transform(g, y, picked)
    combined = y | picked
    for v in range(h.n):
        if v not in combined and not any(w in combined for w in h.adj[v]):
            return AuditVerdict(
                holds=False,
                witness={"undominated": v, "chosen": sorted(picked)},
            )
    return AuditVerdict(holds=True, info={"chosen": len(picked)})


def detach_audit_by_transforms(g: Graph, anchors) -> AuditVerdict:
    """`check_detach_choice` over the sorted choices of at most two
    detachable vertices, summed in the form of `check_detach_fact`."""
    y = frozenset(anchors)
    pool = sorted(detachable_vertices_by_sets(g, y))
    transforms = vacuous = 0
    for chosen in sorted(c for k in range(3) for c in combinations(pool, k)):
        verdict = check_detach_choice(g, y, chosen)
        transforms += 1
        if not verdict.holds:
            info = {"transforms": transforms, "vacuous": vacuous}
            return AuditVerdict(False, witness=verdict.witness, info=info)
        vacuous += verdict.vacuous
    info = {"transforms": transforms, "vacuous": vacuous}
    return AuditVerdict(True, vacuous=vacuous == transforms, info=info)


# --- earlier pair separation: every kept set tested --------------------------


def pair_separation_by_sets(f) -> AuditVerdict:
    """The `tight_pair_separation` verdict on `Facts` f, with
    `check_pair_separation` run on every kept set and the vacuous ones
    counted."""
    keepers, floor = f.min_edge_dsets
    vacuous = 0
    for dset in keepers:
        verdict = check_pair_separation(f.g, dset)
        if not verdict.holds:
            return verdict
        if verdict.vacuous:
            vacuous += 1
    info = {
        "dsets": len(keepers),
        "vacuous_dsets": vacuous,
        "min_induced_edges": floor,
        "truncated": f.min_dsets.truncated,
    }
    return AuditVerdict(True, vacuous=vacuous == len(keepers), info=info)
