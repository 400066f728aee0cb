"""perfbench: the benchmark of `domlab sweep`.

    python3 perfbench/run.py --workload family-n10 --seed 1 --seconds 32 --trace 0

Run from the repository root: the program is imported from `src/`.  The
corpus is generated from `--seed` and written as graph6 files under
`.perfbench/`; the program only ever reads those files.  The timed sweeps
run in a fresh process (`measure.py`), then every record is checked here.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import oracles
from spans import COUNT_LAYERS, SPAN_LAYERS, layer_name
from workloads import WORKLOADS, Workload, graph6_lines

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORK_ROOT = ".perfbench"
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 2, 15, 1.0
WARMUP_GRAPHS = 4
PREFILL_JOBS = 2
CONNECTIVITY_SAMPLE = 8
CHILD_TIMEOUT_S = 170
# Layers whose self time is everything their listed children do not cover.
GLUE_LAYERS = ("cli.main", "sweep.compute_pieces")


class Paths:
    """Files of one run, all under .perfbench/<workload>-<seed>/."""

    def __init__(self, root: str):
        self.root = root

    def __call__(self, name: str) -> str:
        return os.path.join(self.root, name)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def sweep_argv(w: Workload, corpus: str, out: str, summary: str, jobs: int, cache: str | None) -> list[str]:
    argv = ["sweep", "--corpus", corpus, "--checks", w.checks, "--jobs", str(jobs),
            "--out", out, "--summary", summary]
    return argv + ["--cache", cache] if cache else argv


def set_up(w: Workload, seed: int, paths: Paths, main) -> list[list[tuple]]:
    """Corpus files and, for a warm cache, the cache itself."""
    corpus = w.generate(seed)
    for i, chunk in enumerate(corpus):
        lines = graph6_lines(chunk)
        _write_lines(paths(f"corpus-{i}.g6"), lines)
        if i == 0:
            _write_lines(paths("warmup.g6"), lines[:WARMUP_GRAPHS])
    if w.cache == "warm":
        argv = sweep_argv(w, paths("corpus-0.g6"), paths("prefill.jsonl"),
                          paths("prefill.csv"), PREFILL_JOBS, paths("cache.jsonl"))
        with contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError("the cache pre-fill sweep failed")
    return corpus


def timed_set_up(w: Workload, seed: int, paths: Paths, main) -> tuple[list[list[tuple]], list[float]]:
    """Set up several times from scratch; the last set-up is the one kept."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        shutil.rmtree(paths.root, ignore_errors=True)
        os.makedirs(paths.root)
        t0 = time.perf_counter()
        corpus = set_up(w, seed, paths, main)
        times.append(time.perf_counter() - t0)
    return corpus, times


def plan(w: Workload, paths: Paths, traced: bool, seconds: float) -> dict:
    jobs = 1 if traced else w.jobs

    def spec(corpus: str, tag: str) -> dict:
        cache = {"none": None, "fresh": paths(f"cache-{tag}.jsonl"), "warm": paths("cache.jsonl")}[w.cache]
        return {"argv": sweep_argv(w, paths(corpus), paths(f"out-{tag}.jsonl"),
                                   paths(f"summary-{tag}.csv"), jobs, cache),
                "out": paths(f"out-{tag}.jsonl"),
                "fresh_cache": cache if w.cache == "fresh" else None}

    count = w.traced_chunks if traced else w.chunks
    return {
        "src": SRC,
        "seconds": seconds,
        "traced": traced,
        "spans": paths("spans.tsv"),
        "warmup": spec("warmup.g6", "warmup"),
        "chunks": [spec(f"corpus-{i}.g6", str(i)) for i in range(count)],
    }


def measure(p: dict, paths: Paths, env: dict[str, str]) -> dict:
    plan_path = paths("plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(p, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "measure.py"), plan_path],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"measure.py exited {proc.returncode}")
    with open(paths("measure.json"), "w", encoding="utf-8") as fh:
        fh.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness ---------------------------------------------------------

ORACLES = {"gamma": oracles.gamma_bruteforce, "connectivity": oracles.connectivity_networkx}


def oracle_picks(w: Workload, seed: int, sizes: list[int]) -> list[set[int]]:
    """Per corpus file, the indexes of the graphs checked against the
    oracle: all of them for brute-force gamma, a seeded sample otherwise."""
    if w.oracle == "gamma":
        return [set(range(k)) for k in sizes]
    flat = [(c, i) for c, k in enumerate(sizes) for i in range(k)]
    picks: list[set[int]] = [set() for _ in sizes]
    for c, i in random.Random(f"perfbench/oracle/{w.name}/{seed}").sample(flat, min(CONNECTIVITY_SAMPLE, len(flat))):
        picks[c].add(i)
    return picks


def bad_records(w: Workload, chunk: list[tuple], out: bytes, checks: set[str], picks: set[int]) -> set[int]:
    """Indexes of graphs whose record is missing, malformed, timed out or
    disagrees with the oracle."""
    lines = graph6_lines(chunk)
    rows = out.decode("utf-8").splitlines()
    if len(rows) != len(lines):
        return set(range(len(lines)))
    records = [json.loads(row) for row in rows]
    bad = {i for i, (line, rec) in enumerate(zip(lines, records))
           if rec.get("graph6") != line or set(rec.get("checks", ())) != checks
           or rec.get("gamma") is None
           or any("timeout" in piece for piece in rec["checks"].values())}
    oracle = ORACLES[w.oracle]
    return bad | {i for i in picks - bad if records[i][w.oracle] != oracle(*chunk[i])}


def sweep_ok(w: Workload, s: dict, graphs: int, digest: str) -> bool:
    if s["rc"] != 0 or s["graphs"] != graphs or s["digest"] != digest:
        return False
    if w.cache == "fresh" and s["cache_hits"] != 0:
        return False
    if w.cache == "warm" and s["cache_misses"] != 0:
        return False
    return True


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- one run ---------------------------------------------------------------

def run(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    sys.path.insert(0, SRC)
    from domlab.cli import main
    from domlab.sweep import CACHE_ENV, DEFAULT_CHECKS

    checks = set(DEFAULT_CHECKS) if w.checks == "all" else set(w.checks.split(","))
    paths = Paths(os.path.join(WORK_ROOT, f"{w.name}-{seed}"))
    corpus, setup_times = timed_set_up(w, seed, paths, main)
    # The benchmark decides about caches, not the caller's environment.
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    result = measure(plan(w, paths, traced, seconds), paths, env)
    if not traced:
        # Set up as often again after the timed sweeps, in a directory of its
        # own, so that set-up time is sampled at both ends of the run.
        setup_times += timed_set_up(w, seed, Paths(paths("again")), main)[1]

    if traced:
        chunks = corpus[:w.traced_chunks]
        rounds = [result["untraced"], result["traced"]]
    else:
        chunks = corpus
        rounds = result["passes"]
    attempted = sum(len(c) for c in chunks)
    picks = oracle_picks(w, seed, [len(c) for c in chunks])
    failed = 0
    outputs = []
    for i, chunk in enumerate(chunks):
        out = _read(paths(f"out-{i}.jsonl"))
        outputs.append(out)
        digest = hashlib.sha256(out).hexdigest()
        if not all(sweep_ok(w, r[i], len(chunk), digest) for r in rounds):
            failed += len(chunk)
        else:
            failed += len(bad_records(w, chunk, out, checks, picks[i]))
    joined = b"".join(outputs)
    digest = hashlib.sha256(joined).hexdigest()
    notes = {}
    if w.cache == "warm" and joined != _read(paths("prefill.jsonl")):
        failed, notes["warm_equals_cold"] = attempted, False
    if not traced:
        expected = load_reference().get(w.name, {}).get(str(seed))
        notes["reference"] = "unrecorded" if expected is None else ("match" if expected == digest else "MISMATCH")
        if expected is not None and expected != digest:
            failed = attempted

    report = {"workload": w.name, "seed": seed, "graphs": attempted, "digest": digest,
              "correct": failed == 0, "attempted": attempted, "failed": failed, "notes": notes}
    if traced:
        metrics, silent = layer_metrics(w, result)
        if silent:
            report["correct"] = False
            notes["layers_never_called"] = silent
    else:
        rates = [attempted / sum(s["wall_s"] for s in p) for p in rounds]
        notes["passes"] = len(rounds)
        metrics = {
            "graphs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    report["metrics"] = metrics
    return report


def layer_metrics(w: Workload, result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the layers the workload should
    have called but did not."""
    layers, counts = result["layers"], result["counts"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for target, size_name, _ in SPAN_LAYERS:
        name = layer_name(target)
        row = layers[name]
        put(f"{name}.load_s" if name == "sweep.VerdictCache" else f"{name}.self_s", row["self_s"], "s")
        put(f"{name}.calls", row["calls"], "count")
        if size_name:
            put(f"{name}.{size_name}", counts.get(f"{name}.{size_name}", 0), "count")
    for target in COUNT_LAYERS:
        put(f"{target}.calls", counts.get(f"{target}.calls", 0), "count")
    calls = metrics["seams.try_ear_link.calls"]["value"]
    put("seams.link_hit_ratio", metrics["seams.try_ear_link.links"]["value"] / calls if calls else 0.0, "ratio")
    hits = sum(s["cache_hits"] for s in result["traced"])
    misses = sum(s["cache_misses"] for s in result["traced"])
    put("sweep.cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    traced_s = sum(s["wall_s"] for s in result["traced"])
    untraced_s = sum(s["wall_s"] for s in result["untraced"])
    put("trace.wall_s", traced_s, "s")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio")
    inner = sum(row["self_s"] for name, row in layers.items() if name not in GLUE_LAYERS)
    put("trace.layer_share", inner / traced_s, "ratio")
    silent = [name for name in w.exercises if metrics[f"{name}.calls"]["value"] < 1]
    return metrics, silent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "domlab", "cli.py")):
        print("perfbench: no src/domlab here; run from the repository root", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    report = run(w, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={w.name} seed={args.seed} graphs={report['graphs']} "
          + " ".join(f"{k}={v}" for k, v in report["notes"].items()))
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} graphs)")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
