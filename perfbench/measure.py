"""Timed sweeps in a fresh process: `python3 perfbench/measure.py PLAN.json`.

`run.py` writes the plan and starts this process so that its peak
resident memory covers only the workload's sweeps.  Each sweep is one
call of `domlab.cli.main` with an argv, timed from the call to its return,
by which time the JSONL and summary files are written.  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

from spans import Tracer

SUMMARY_LINE = re.compile(r"graphs=(\d+) cache_hits=(\d+) cache_misses=(\d+)")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep(cli, spec: dict) -> dict:
    """One complete sweep; the fresh cache file, if any, is removed first.

    `cli.main` is looked up on every call so that a traced run reaches its
    wrapper.
    """
    if spec.get("fresh_cache"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(spec["fresh_cache"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall = time.perf_counter() - t0
    found = SUMMARY_LINE.search(err.getvalue())
    graphs, hits, misses = (int(x) for x in found.groups()) if found else (-1, -1, -1)
    return {"wall_s": wall, "rc": rc, "graphs": graphs, "cache_hits": hits,
            "cache_misses": misses, "digest": _digest(spec["out"]) if rc == 0 else None}


def timed_passes(cli, chunks: list[dict], seconds: float) -> list[list[dict]]:
    """Whole passes over every chunk until `seconds` have gone by."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        done.append([sweep(cli, spec) for spec in chunks])
    return done


def traced_pass(cli, chunks: list[dict], spans_path: str) -> dict:
    """Each chunk swept untraced, then traced, with the same argv."""
    tracer = Tracer()
    untraced, traced = [], []
    for spec in chunks:
        untraced.append(sweep(cli, spec))
        tracer.install()
        try:
            traced.append(sweep(cli, spec))
        finally:
            tracer.uninstall()
    tracer.write_spans(spans_path)
    return {"untraced": untraced, "traced": traced,
            "layers": tracer.layer_totals(), "counts": dict(tracer.counts)}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from domlab import cli

    sweep(cli, plan["warmup"])  # discarded: the first sweep of a process runs cold
    if plan["traced"]:
        result = traced_pass(cli, plan["chunks"], plan["spans"])
    else:
        result = {"passes": timed_passes(cli, plan["chunks"], plan["seconds"])}
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
