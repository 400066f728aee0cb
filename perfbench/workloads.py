"""The benchmark's workloads: seeded corpora and the sweep each one runs.

Sizes were set on a 2-vCPU x86-64 VM (Python 3.11): a corpus file takes
0.25-0.5 s to sweep, so a run sweeps each file several times, and a
corpus is large enough that `graphs_per_s` varies little from seed to
seed.  Why each
workload exists is in `why` and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from corpus import Edges, encode_graph6, gnp, random_cubic

ALL_CHECKS = "all"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str          # "cubic" or "gnp"
    n: int
    chunks: int             # corpus files; each is one complete sweep
    graphs: int             # graphs per corpus file
    checks: str             # value of `domlab sweep --checks`
    jobs: int               # `--jobs` of the untraced sweeps
    cache: str              # "none", "fresh" (new file per sweep) or "warm" (filled in set-up)
    oracle: str             # record field checked: "gamma" (brute force, every graph) or
                            # "connectivity" (networkx, a seeded sample of graphs)
    traced_chunks: int      # corpus files (the first ones) the traced run sweeps, at --jobs 1
    exercises: tuple[str, ...]  # layers the traced run must see called at least once
    p: float = 0.0
    max_min_degree: int | None = None

    def generate(self, seed: int) -> list[list[tuple[int, Edges]]]:
        """Corpus files for `seed`: lists of (n, edges)."""
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        out = []
        for _ in range(self.chunks):
            if self.generator == "cubic":
                out.append([(self.n, random_cubic(self.n, rng)) for _ in range(self.graphs)])
            else:
                out.append([(self.n, gnp(self.n, self.p, rng, self.max_min_degree))
                            for _ in range(self.graphs)])
        return out


def graph6_lines(chunk: list[tuple[int, Edges]]) -> list[str]:
    return [encode_graph6(n, edges) for n, edges in chunk]


_SWEEP = ("cli.main", "sweep.compute_pieces", "sweep.record_to_jsonl", "graph6.parse_graph6")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="family-n10",
            why="random cubic n=10, all checks, pool of 2, fresh cache: families, surgery, cache writes",
            generator="cubic", n=10, chunks=16, graphs=10, checks=ALL_CHECKS, jobs=2,
            cache="fresh", oracle="gamma", traced_chunks=16,
            exercises=_SWEEP + (
                "sweep.VerdictCache", "seams.seamless_families", "seams.prune_nonexclusive",
                "seams.spaced_assignments", "seams.try_ear_link", "cycles.all_simple_cycles",
                "cycles.mod3_cycles", "reduction.check_detach_fact",
                "reduction.detachable_vertices", "reduction.removable_edges",
                "graphs.delete_edges", "graphs.vertex_connectivity",
                "domination.enumerate_min_dsets", "domination.is_dominating",
                "domination.gamma_exact", "domination.idom_exact"),
        ),
        Workload(
            name="exact-n40",
            why="random cubic n=40, gamma/idom checks only: connectivity and exact solvers, no seams",
            generator="cubic", n=40, chunks=18, graphs=2,
            checks="third_bound,excess_gamma_independent", jobs=2, cache="none",
            oracle="connectivity", traced_chunks=12,
            exercises=_SWEEP + ("domination.gamma_exact", "domination.idom_exact",
                                "graphs.vertex_connectivity"),
        ),
        Workload(
            name="warm-cache",
            why="G(9,0.3) with a vertex of degree <= 2, rerun with every verdict cached in set-up: cache load and records",
            generator="gnp", n=9, p=0.3, max_min_degree=2, chunks=1, graphs=400,
            checks=ALL_CHECKS,
            jobs=1, cache="warm", oracle="gamma", traced_chunks=1,
            exercises=("cli.main", "sweep.VerdictCache", "sweep.record_to_jsonl"),
        ),
    )
}
