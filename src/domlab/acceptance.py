"""Acceptance suite: one ordered registry of criteria, shared by `domlab
verify` and the pytest acceptance module.

`CRITERIA` maps each criterion name, written nowhere else, to a body that
returns a `Verdict` and the body's time budget in seconds, or None: (True,
detail) passes, (False, detail) fails and (None, detail) skips.  A
criterion's id is its position in the registry.
Criteria 4-10 each run one check of `checks.CHECKS` over a corpus
through `_audit`, so a violation reads the same in each of them.  Every corpus
here is generated deterministically from fixed seeds, so two runs of the
suite see the same graphs.  Bodies return instead of raising, which lets
`verify` print the whole table before deciding the exit code.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import ceil
from typing import Callable, Sequence

from .checks import CHECKS, Facts
from .cycles import mod3_cycles
from .domination import SolverTimeout, gamma_bruteforce, gamma_exact, idom_exact
from .graph6 import encode_graph6, parse_graph6, read_graph6_lines
from .graphs import Graph, gnp_random, named_graph, random_cubic, vertex_connectivity
from .reduction import check_removal_fact, find_forbidden_core, find_induced_claw, removable_edges
from .sweep import record_to_jsonl, run_sweep

Verdict = tuple[bool | None, str]

COUNTEREXAMPLE_ENV = "DOMLAB_COUNTEREXAMPLE"

FIXTURE_NAMES = (
    "k4",
    "k13",
    "petersen",
    "prism",
    "c3",
    "c4",
    "c5",
    "c6",
    "c7",
    "c8",
    "c9",
    "c12",
    "p1",
    "p2",
    "p3",
    "p4",
    "p5",
    "theta(1,2,2)",
    "theta(1,1,1)",
    "theta(2,2,2)",
)

# Reference graph6 lines generated once with networkx.to_graph6_bytes (an
# independent implementation of the same published format), frozen here so
# the check does not depend on networkx at run time.
GRAPH6_REFERENCE: tuple[tuple[str, int, tuple[tuple[int, int], ...]], ...] = (
    ("C~", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ("Cs", 4, ((0, 1), (0, 2), (0, 3))),
    ("IheA@GUAo", 10, ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9))),
    ("E{Sw", 6, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5))),
    ("Bw", 3, ((0, 1), (0, 2), (1, 2))),
    ("Cl", 4, ((0, 1), (0, 3), (1, 2), (2, 3))),
    ("Dhc", 5, ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))),
    ("EhEG", 6, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))),
    ("FhCKG", 7, ((0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    ("HhCGGE@", 9, ((0, 1), (0, 8), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))),
    ("@", 1, ()),
    ("A_", 2, ((0, 1),)),
    ("Ch", 4, ((0, 1), (1, 2), (2, 3))),
    ("DhC", 5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    ("F[UAG", 7, ((0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 6), (3, 4), (5, 6))),
    ("GR`KAC", 8, ((0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 7), (2, 3), (4, 5), (6, 7))),
    ("?", 0, ()),
    ("D??", 5, ()),
    ("GpPUPk", 8, ((0, 1), (0, 2), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3), (2, 7), (3, 5), (3, 7), (4, 6), (5, 7), (6, 7))),
    ("Hqd_GhD", 9, ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (1, 8), (2, 5), (3, 4), (3, 7), (5, 6), (5, 7), (5, 8), (7, 8))),
    ("I?GGZK@E_", 10, ((1, 7), (2, 4), (2, 7), (3, 9), (4, 5), (4, 6), (4, 9), (5, 6), (5, 7), (6, 7), (6, 9), (7, 8))),
    ("JAf|DqxaC__", 11, ((0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 3), (1, 5), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (4, 5), (4, 7), (4, 8), (4, 9), (7, 8), (9, 10))),
    ("K_g?YiO?h_k_", 12, ((0, 1), (0, 4), (0, 8), (1, 7), (1, 11), (2, 4), (2, 10), (2, 11), (3, 7), (3, 8), (3, 10), (4, 6), (5, 6), (5, 7), (5, 11), (6, 9), (8, 9), (9, 10))),
)


def fixture_graphs() -> dict[str, Graph]:
    return {name: named_graph(name) for name in FIXTURE_NAMES}


@lru_cache(maxsize=None)
def mixed_random_graphs(count: int = 500) -> tuple[Graph, ...]:
    """Seeded G(n, p) corpus, n in 4..12, five densities."""
    densities = (0.15, 0.3, 0.5, 0.7, 0.85)
    out = []
    for i in range(count):
        n = 4 + i % 9
        p = densities[(i // 9) % len(densities)]
        out.append(gnp_random(n, p, seed=1000 + i))
    return tuple(out)


@lru_cache(maxsize=None)
def filtered_corpus(kind: str, count: int = 200) -> tuple[Graph, ...]:
    """First `count` seeded G(n, p) graphs passing a structural filter."""
    out = []
    seed = 0
    while len(out) < count:
        n = 5 + seed % 8
        p = (0.1, 0.18, 0.26)[(seed // 8) % 3]
        g = gnp_random(n, p, seed=20_000 + seed)
        seed += 1
        if kind == "claw_free" and find_induced_claw(g) is None:
            out.append(g)
        elif kind == "core_free" and find_forbidden_core(g) is None:
            out.append(g)
        elif kind == "subcubic" and g.max_degree() <= 3:
            out.append(g)
    return tuple(out)


def forced_edge_fixtures() -> tuple[Graph, ...]:
    """Subcubic graphs whose every minimum dominating set induces an edge.

    Double-star cores make the adjacent pair {0, 1} unavoidable, so these
    exercise the non-vacuous branch of the pair-separation audit.
    """
    double_star = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
    return (
        Graph.from_edges(8, double_star + [(6, 7)]),
        Graph.from_edges(9, double_star + [(6, 7), (7, 8)]),
        Graph.from_edges(12, double_star + [(6, 7), (6, 8), (6, 9), (7, 10), (7, 11)]),
        Graph.from_edges(12, double_star + [(6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (6, 11)]),
    )


def separation_corpus() -> tuple[Graph, ...]:
    return filtered_corpus("subcubic") + forced_edge_fixtures()


@lru_cache(maxsize=None)
def cubic_corpus() -> tuple[Graph, ...]:
    """1000 seeded connected cubic graphs, 200 per n in {8,10,12,14,16}."""
    out = []
    for i, n in enumerate((8, 10, 12, 14, 16)):
        for k in range(200):
            out.append(random_cubic(n, seed=50_000 + 1000 * i + k))
    return tuple(out)


def _cut_enumeration_connectivity(g: Graph) -> int:
    # independent oracle: smallest vertex set whose removal disconnects;
    # the tests import it from here too
    if g.n == 1:
        return 0
    for k in range(g.n - 1):
        for cut in combinations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in cut]
            if len(rest) < 2:
                continue
            seen = {rest[0]}
            queue = [rest[0]]
            banned = set(cut)
            while queue:
                v = queue.pop()
                for w in g.adj[v]:
                    if w not in banned and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) != len(rest):
                return k
    return g.n - 1


def solver_oracle_equivalence() -> Verdict:
    graphs = list(fixture_graphs().values()) + list(mixed_random_graphs())
    for g in graphs:
        if gamma_exact(g).size != gamma_bruteforce(g).size:
            return False, f"mismatch on n={g.n} m={g.m}"
    return True, f"{len(graphs)} graphs"


def cycle_domination_law() -> Verdict:
    for n in range(3, 25):
        g = named_graph(f"c{n}")
        want = ceil(n / 3)
        if gamma_bruteforce(g).size != want or gamma_exact(g).size != want:
            return False, f"fails at n={n}"
    return True, "n=3..24 all equal ceil(n/3)"


def petersen_fixture_values() -> Verdict:
    g = named_graph("petersen")
    gam = gamma_bruteforce(g).size
    ind = idom_exact(g).size
    conn = vertex_connectivity(g)
    conn_oracle = _cut_enumeration_connectivity(g)
    lengths = sorted(len(c) for c in mod3_cycles(g))
    ok = (
        gam == 3
        and gamma_exact(g).size == 3
        and ind == 3
        and conn == 3
        and conn == conn_oracle
        and bool(lengths)
        and lengths[0] == 6
    )
    return ok, f"gamma={gam} idom={ind} conn={conn} shortest_mod3={lengths[0] if lengths else None}"


def _audit(check: str, graphs: Sequence[Graph], describe: Callable[[Counter], str]) -> Verdict:
    """Run the registry's `check` on each graph its gate admits.  Fail at
    the first violation, naming its witness; else pass with `describe` of
    the totals: every integer `info` count summed over the verdicts, and
    under "graphs" the number of graphs the gate admitted."""
    entry = CHECKS[check]
    totals: Counter = Counter()
    for g in graphs:
        facts = Facts(g)
        if entry.gate(facts) is not None:
            continue
        verdict = entry.evaluate(facts)
        if not verdict.holds:
            return False, f"violation on n={g.n} m={g.m}: {json.dumps(verdict.witness, sort_keys=True)}"
        totals["graphs"] += 1
        totals.update({key: value for key, value in verdict.info.items() if type(value) is int})
    return True, describe(totals)


def claw_free_audit() -> Verdict:
    return _audit("claw_free_equal", filtered_corpus("claw_free"),
                  lambda t: f"{t['graphs']} graphs, zero violations")


def core_free_audit() -> Verdict:
    return _audit("core_free_equal", filtered_corpus("core_free"),
                  lambda t: f"{t['graphs']} graphs, zero violations")


def pair_separation_audit() -> Verdict:
    return _audit("tight_pair_separation", separation_corpus(),
                  lambda t: f"{t['dsets']} minimum-edge d-sets, {t['dsets'] - t['vacuous_dsets']} "
                            f"non-vacuous, {t['vacuous_dsets']} vacuous, zero violations")


def single_edge_removal() -> Verdict:
    # the documented simultaneous-deletion failure must reproduce
    c4 = named_graph("c4")
    if check_removal_fact(c4, {0, 2}, removable_edges(c4, {0, 2})).holds:
        return False, "C4 all-edge deletion unexpectedly held"
    return _audit("edge_removal", separation_corpus(),
                  lambda t: f"{t['edges_checked']} single deletions safe; C4 batch failure reproduced")


def detach_transform() -> Verdict:
    return _audit("detach_transform", separation_corpus(),
                  lambda t: f"{t['transforms']} transforms, {t['vacuous']} vacuous, zero violations")


def cubic_sweep() -> Verdict:
    # a graph with gamma above the bound (a true antecedent) fails the audit
    return _audit("third_bound", cubic_corpus(),
                  lambda t: f"{t['graphs']} graphs, antecedent-true count = 0,")


def mod3_cycle_existence() -> Verdict:
    return _audit("mod3_cycle_exists", cubic_corpus() + tuple(fixture_graphs().values()),
                  lambda t: f"{t['graphs']} three-connected graphs, zero failures")


def family_pipeline() -> Verdict:
    rows = []
    for name in ("k4", "prism", "petersen"):
        facts = Facts(named_graph(name), deadline=time.monotonic() + 60)
        try:
            verdict = CHECKS["family_dset"].evaluate(facts)
        except SolverTimeout:
            return False, f"{name} exceeded its budget"
        info = verdict.info
        rows.append(f"{name}: candidate={info['candidate_size']} gamma={info['gamma']} holds={verdict.holds}")
    return True, "; ".join(rows)


def graph6_reference() -> Verdict:
    if len(GRAPH6_REFERENCE) < 20:
        return False, f"only {len(GRAPH6_REFERENCE)} reference lines"
    for line, n, edges in GRAPH6_REFERENCE:
        g = parse_graph6(line)
        if g != Graph.from_edges(n, edges):
            return False, f"parse disagrees with reference on {line!r}"
        if encode_graph6(g) != line:
            return False, f"encode disagrees with reference on {line!r}"
    for name, g in fixture_graphs().items():
        if parse_graph6(encode_graph6(g)) != g:
            return False, f"round trip failed on fixture {name}"
    return True, f"{len(GRAPH6_REFERENCE)} reference lines bit-exact; fixture round trips hold"


def sweep_determinism() -> Verdict:
    graphs = [named_graph(n) for n in ("k4", "c6", "prism")]
    graphs += [random_cubic(8, seed=7), random_cubic(10, seed=8)]
    lines = [encode_graph6(g) for g in graphs]
    with tempfile.TemporaryDirectory() as tmp:
        # a cold run, its warm-cache rerun, and a cold run on eight jobs
        outs = [
            "\n".join(map(record_to_jsonl, run_sweep(lines, jobs=jobs, cache_path=os.path.join(tmp, cache)).records))
            for jobs, cache in ((1, "cache1"), (1, "cache1"), (8, "cache2"))
        ]
    if outs[0] != outs[1]:
        return False, "warm-cache rerun differs"
    if outs[0] != outs[2]:
        return False, "--jobs 8 output differs from --jobs 1"
    return True, f"{len(lines)} graphs byte-identical across reruns and jobs 1 vs 8"


def external_counterexample(budget_ms: int = 60000) -> Verdict:
    path = os.environ.get(COUNTEREXAMPLE_ENV)
    if not path:
        return None, f"set {COUNTEREXAMPLE_ENV} to a graph6 file to enable"
    if not os.path.isfile(path):
        return False, f"{path} is not a file"
    try:
        lines = read_graph6_lines(path)
        if not lines:
            return False, "file holds no graphs"
        g = parse_graph6(lines[0])
    except (OSError, ValueError) as exc:  # unreadable, not ASCII or not graph6
        return False, f"{path}: {exc}"
    deadline = time.monotonic() + budget_ms / 1000
    try:
        cert = gamma_exact(g, deadline=deadline)
    except SolverTimeout:
        return True, f"n={g.n}: timeout after {budget_ms} ms"
    bound = ceil(g.n / 3)
    note = "matches the cited extremal value" if (g.n, cert.size) == (60, 21) else ""
    return True, f"n={g.n} gamma={cert.size} bound={bound} {note}".strip()


CRITERIA: dict[str, tuple[Callable[[], Verdict], int | None]] = {
    "solver-oracle-equivalence": (solver_oracle_equivalence, 60),
    "cycle-domination-law": (cycle_domination_law, 5),
    "petersen-fixture-values": (petersen_fixture_values, None),
    "claw-free-gamma-equals-idom": (claw_free_audit, None),
    "core-free-gamma-equals-idom": (core_free_audit, None),
    "tight-pair-separation": (pair_separation_audit, None),
    "single-edge-removal-safety": (single_edge_removal, None),
    "detach-transform-fact": (detach_transform, None),
    "cubic-third-bound-sweep": (cubic_sweep, 600),
    "mod3-cycle-existence": (mod3_cycle_existence, None),
    "family-dset-pipeline": (family_pipeline, None),
    "graph6-reference-agreement": (graph6_reference, None),
    "sweep-determinism": (sweep_determinism, None),
    "external-counterexample": (external_counterexample, None),
}


@dataclass
class CriterionResult:
    cid: int
    name: str
    ok: bool
    skipped: bool
    detail: str

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.ok else "FAIL")
        return f"{status} {self.cid:2d} {self.name}: {self.detail}"


def run_criterion(cid: int, budget_ms: int = 60000) -> CriterionResult:
    """Run entry `cid` of `CRITERIA`, counting from 1; `budget_ms` bounds
    the external graph's gamma solve.  A body with a time budget that
    passes fails when it took longer; within the budget its detail gains
    " within the <budget>s budget"."""
    name, (body, budget_s) = list(CRITERIA.items())[cid - 1]
    t0 = time.monotonic()
    verdict, detail = body(budget_ms) if body is external_counterexample else body()
    took = time.monotonic() - t0
    if verdict and budget_s is not None:
        if took < budget_s:
            detail += f" within the {budget_s}s budget"
        else:
            verdict, detail = False, f"{detail} but took {took:.1f}s, over the {budget_s}s budget"
    return CriterionResult(cid, name, verdict is None or bool(verdict), verdict is None, detail)


def run_all(budget_ms: int = 60000) -> list[CriterionResult]:
    return [run_criterion(cid, budget_ms) for cid in range(1, len(CRITERIA) + 1)]


def print_report(results: list[CriterionResult]) -> bool:
    for r in results:
        print(r.line())
    ok = all(r.ok for r in results)
    block = {
        "ok": ok,
        "criteria": [
            {"id": r.cid, "name": r.name, "ok": r.ok, "skipped": r.skipped, "detail": r.detail}
            for r in results
        ],
    }
    print("RESULT " + json.dumps(block, sort_keys=True))
    return ok
