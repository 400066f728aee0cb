"""Acceptance suite: one function per criterion, shared by `domlab verify`
and the pytest acceptance module.

Every corpus here is generated deterministically from fixed seeds, so two
runs of the suite see the same graphs.  Criterion functions return a
result row instead of raising, which lets `verify` print the whole table
before deciding the exit code.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import ceil
from typing import Iterator

from . import cli
from .checks import CHECKS, Facts
from .cycles import mod3_cycles
from .domination import SolverTimeout, gamma_bruteforce, gamma_exact, idom_exact
from .graph6 import encode_graph6, parse_graph6, read_graph6_lines
from .graphs import Graph, gnp_random, named_graph, random_cubic, vertex_connectivity
from .reduction import (
    AuditVerdict,
    check_removal_fact,
    find_forbidden_core,
    find_induced_claw,
    removable_edges,
)

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


@dataclass
class CriterionResult:
    cid: int
    name: str
    ok: bool
    skipped: bool
    detail: str


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


def crit01_solver_oracle() -> CriterionResult:
    t0 = time.monotonic()
    graphs = list(fixture_graphs().values()) + list(mixed_random_graphs())
    for g in graphs:
        if gamma_exact(g).size != gamma_bruteforce(g).size:
            return CriterionResult(1, "solver-oracle-equivalence", False, False,
                                   f"mismatch on n={g.n} m={g.m}")
    took = time.monotonic() - t0
    return CriterionResult(1, "solver-oracle-equivalence", took < 60, False,
                           f"{len(graphs)} graphs within the 60s budget")


def crit02_cycle_law() -> CriterionResult:
    t0 = time.monotonic()
    for n in range(3, 25):
        g = named_graph(f"c{n}")
        want = ceil(n / 3)
        if gamma_bruteforce(g).size != want or gamma_exact(g).size != want:
            return CriterionResult(2, "cycle-domination-law", False, False, f"fails at n={n}")
    took = time.monotonic() - t0
    return CriterionResult(2, "cycle-domination-law", took < 5, False,
                           "n=3..24 all equal ceil(n/3) within the 5s budget")


def crit03_petersen_facts() -> CriterionResult:
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
        and lengths
        and lengths[0] == 6
    )
    return CriterionResult(3, "petersen-fixture-values", ok, False,
                           f"gamma={gam} idom={ind} conn={conn} shortest_mod3={lengths[0] if lengths else None}")


def _verdicts(check: str, graphs) -> Iterator[tuple[Graph, AuditVerdict]]:
    """The registry's verdict of `check` on each graph its gate admits."""
    entry = CHECKS[check]
    for g in graphs:
        facts = Facts(g)
        if entry.gate(facts) is None:
            yield g, entry.evaluate(facts)


def _equal_numbers_over(corpus, check: str, cid: int, name: str) -> CriterionResult:
    for g, verdict in _verdicts(check, corpus):
        if not verdict.holds:
            return CriterionResult(cid, name, False, False, f"violation on n={g.n} m={g.m}")
    return CriterionResult(cid, name, True, False, f"{len(corpus)} graphs, zero violations")


def crit04_claw_free_audit() -> CriterionResult:
    return _equal_numbers_over(filtered_corpus("claw_free"), "claw_free_equal", 4,
                               "claw-free-gamma-equals-idom")


def crit05_core_free_audit() -> CriterionResult:
    return _equal_numbers_over(filtered_corpus("core_free"), "core_free_equal", 5,
                               "core-free-gamma-equals-idom")


def crit06_pair_separation() -> CriterionResult:
    checked = 0
    vacuous = 0
    for _, verdict in _verdicts("tight_pair_separation", separation_corpus()):
        if not verdict.holds:
            return CriterionResult(6, "tight-pair-separation", False, False,
                                   f"violation: {verdict.witness}")
        checked += verdict.info["dsets"]
        vacuous += verdict.info["vacuous_dsets"]
    return CriterionResult(
        6, "tight-pair-separation", True, False,
        f"{checked} minimum-edge d-sets, {checked - vacuous} non-vacuous, "
        f"{vacuous} vacuous, zero violations")


def crit07_single_edge_removal() -> CriterionResult:
    checked = 0
    for g, verdict in _verdicts("edge_removal", separation_corpus()):
        if not verdict.holds:
            return CriterionResult(7, "single-edge-removal-safety", False, False,
                                   f"violation on n={g.n} edge={tuple(verdict.witness['edge'])}")
        checked += verdict.info["edges_checked"]
    # the documented simultaneous-deletion failure must reproduce
    c4 = named_graph("c4")
    fixture = check_removal_fact(c4, {0, 2}, removable_edges(c4, {0, 2}))
    if fixture.holds:
        return CriterionResult(7, "single-edge-removal-safety", False, False,
                               "C4 all-edge deletion unexpectedly held")
    return CriterionResult(7, "single-edge-removal-safety", True, False,
                           f"{checked} single deletions safe; C4 batch failure reproduced")


def crit08_detach_transform() -> CriterionResult:
    checked = 0
    vacuous = 0
    for g, verdict in _verdicts("detach_transform", separation_corpus()):
        if not verdict.holds:
            return CriterionResult(8, "detach-transform-fact", False, False,
                                   f"violation on n={g.n} chosen={verdict.witness['chosen']}")
        checked += verdict.info["transforms"]
        vacuous += verdict.info["vacuous"]
    return CriterionResult(8, "detach-transform-fact", True, False,
                           f"{checked} transforms, {vacuous} vacuous, zero violations")


def crit09_cubic_sweep() -> CriterionResult:
    t0 = time.monotonic()
    corpus = cubic_corpus()
    for g, verdict in _verdicts("third_bound", corpus):
        if not verdict.holds:
            w = verdict.witness
            return CriterionResult(9, "cubic-third-bound-sweep", False, False,
                                   f"bound violated on n={g.n}: gamma={w['gamma']} > {w['bound']}")
    took = time.monotonic() - t0
    # a graph with gamma above the bound (a true antecedent) has failed above
    return CriterionResult(9, "cubic-third-bound-sweep", took < 600, False,
                           f"{len(corpus)} graphs, antecedent-true count = 0, "
                           "within the 600s budget")


def crit10_mod3_nonempty() -> CriterionResult:
    checked = 0
    pool = cubic_corpus() + tuple(fixture_graphs().values())
    for g, verdict in _verdicts("mod3_cycle_exists", pool):
        if not verdict.holds:
            return CriterionResult(10, "mod3-cycle-existence", False, False,
                                   f"no 0-mod-3 cycle in a 3-connected graph n={g.n}")
        checked += 1
    return CriterionResult(10, "mod3-cycle-existence", True, False,
                           f"{checked} three-connected graphs, zero failures")


def crit11_family_pipeline() -> CriterionResult:
    names = ["k4", "prism", "petersen"]
    family = CHECKS["family_dset"]
    extra = [n for n, g in fixture_graphs().items()
             if n not in names and 4 <= g.n <= 12 and family.gate(Facts(g)) is None]
    rows = []
    for name in names + sorted(extra):
        facts = Facts(named_graph(name), deadline=time.monotonic() + 60)
        try:
            verdict = family.evaluate(facts)
        except SolverTimeout:
            return CriterionResult(11, "family-dset-pipeline", False, False,
                                   f"{name} exceeded its budget")
        info = verdict.info
        rows.append(f"{name}: candidate={info['candidate_size']} gamma={info['gamma']} holds={verdict.holds}")
    return CriterionResult(11, "family-dset-pipeline", True, False, "; ".join(rows))


def crit12_graph6_reference() -> CriterionResult:
    lines = 0
    for line, n, edges in GRAPH6_REFERENCE:
        g = parse_graph6(line)
        if g != Graph.from_edges(n, edges):
            return CriterionResult(12, "graph6-reference-agreement", False, False,
                                   f"parse disagrees with reference on {line!r}")
        if encode_graph6(g) != line:
            return CriterionResult(12, "graph6-reference-agreement", False, False,
                                   f"encode disagrees with reference on {line!r}")
        lines += 1
    for name, g in fixture_graphs().items():
        if parse_graph6(encode_graph6(g)) != g:
            return CriterionResult(12, "graph6-reference-agreement", False, False,
                                   f"round trip failed on fixture {name}")
    if lines < 20:
        return CriterionResult(12, "graph6-reference-agreement", False, False,
                               f"only {lines} reference lines")
    return CriterionResult(12, "graph6-reference-agreement", True, False,
                           f"{lines} reference lines bit-exact; fixture round trips hold")


def crit13_sweep_determinism() -> CriterionResult:
    corpus_graphs = ["k4", "c6", "prism"]
    lines = [encode_graph6(named_graph(n)) for n in corpus_graphs]
    lines += [encode_graph6(random_cubic(8, seed=7)), encode_graph6(random_cubic(10, seed=8))]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.g6")
        with open(corpus, "w", encoding="ascii") as fh:
            fh.write("# determinism corpus\n")
            fh.write("\n".join(lines) + "\n")
        outs = []
        for tag, jobs, cache in (("a", 1, "cache1"), ("b", 1, "cache1"), ("c", 8, "cache2")):
            out = os.path.join(tmp, f"out_{tag}.jsonl")
            code = cli.main([
                "sweep", "--corpus", corpus, "--jobs", str(jobs),
                "--cache", os.path.join(tmp, cache), "--out", out,
                "--summary", os.path.join(tmp, f"sum_{tag}.csv"),
            ])
            if code != 0:
                return CriterionResult(13, "sweep-determinism", False, False,
                                       f"sweep exited {code}")
            with open(out, "rb") as fh:
                outs.append(fh.read())
    if outs[0] != outs[1]:
        return CriterionResult(13, "sweep-determinism", False, False,
                               "warm-cache rerun differs")
    if outs[0] != outs[2]:
        return CriterionResult(13, "sweep-determinism", False, False,
                               "--jobs 8 output differs from --jobs 1")
    return CriterionResult(13, "sweep-determinism", True, False,
                           f"{len(lines)} graphs byte-identical across reruns and jobs 1 vs 8")


def crit14_external_counterexample(budget_ms: int = 60000) -> CriterionResult:
    path = os.environ.get(COUNTEREXAMPLE_ENV)
    if not path:
        return CriterionResult(14, "external-counterexample", True, True,
                               f"set {COUNTEREXAMPLE_ENV} to a graph6 file to enable")
    if not os.path.exists(path):
        return CriterionResult(14, "external-counterexample", False, False,
                               f"{path} does not exist")
    lines = read_graph6_lines(path)
    if not lines:
        return CriterionResult(14, "external-counterexample", False, False, "file holds no graphs")
    g = parse_graph6(lines[0])
    deadline = time.monotonic() + budget_ms / 1000
    try:
        cert = gamma_exact(g, deadline=deadline)
    except SolverTimeout:
        return CriterionResult(14, "external-counterexample", True, False,
                               f"n={g.n}: timeout after {budget_ms} ms")
    bound = ceil(g.n / 3)
    note = "matches the cited extremal value" if (g.n, cert.size) == (60, 21) else ""
    return CriterionResult(14, "external-counterexample", True, False,
                           f"n={g.n} gamma={cert.size} bound={bound} {note}".strip())


def run_all(budget_ms: int = 60000) -> list[CriterionResult]:
    return [
        crit01_solver_oracle(),
        crit02_cycle_law(),
        crit03_petersen_facts(),
        crit04_claw_free_audit(),
        crit05_core_free_audit(),
        crit06_pair_separation(),
        crit07_single_edge_removal(),
        crit08_detach_transform(),
        crit09_cubic_sweep(),
        crit10_mod3_nonempty(),
        crit11_family_pipeline(),
        crit12_graph6_reference(),
        crit13_sweep_determinism(),
        crit14_external_counterexample(budget_ms=budget_ms),
    ]


def print_report(results: list[CriterionResult]) -> bool:
    ok = True
    for r in results:
        status = "SKIP" if r.skipped else ("PASS" if r.ok else "FAIL")
        if not r.ok:
            ok = False
        print(f"{status} {r.cid:2d} {r.name}: {r.detail}")
    block = {
        "ok": ok,
        "criteria": [
            {"id": r.cid, "name": r.name, "ok": r.ok, "skipped": r.skipped, "detail": r.detail}
            for r in results
        ],
    }
    print("RESULT " + json.dumps(block, sort_keys=True))
    return ok
