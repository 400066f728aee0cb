"""Corpus sweep engine: per-graph audit records, caching, summaries.

One JSONL record per input graph, in input order regardless of
parallelism.  Records are byte-stable: keys sorted, compact separators,
and no timing fields unless explicitly requested, so two runs of the same
sweep diff clean.  The cache is an append-only JSONL file keyed by
(graph6, check, code version); corrupt lines, which do not parse or lack
a key that records read, are skipped with a warning.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import ceil

from . import __version__
from .checks import CHECKS, Check, Facts
from .domination import SolverTimeout
from .graph6 import parse_graph6

CACHE_ENV = "DOMLAB_CACHE"
BASE_KEY = "base"
DEFAULT_CHECKS = tuple(CHECKS)


def _solved(facts: Facts, name: str) -> int | None:
    try:
        return getattr(facts, name)
    except SolverTimeout:
        return None


def _base_piece(facts: Facts) -> dict:
    g = facts.g
    return {
        "n": g.n,
        "m": g.m,
        "connectivity": facts.connectivity,
        "cubic": facts.cubic,
        "gamma": _solved(facts, "gamma"),
        "idom": _solved(facts, "idom"),
        "reed_bound": ceil(g.n / 3),
    }


def _check_piece(check: Check, facts: Facts) -> dict:
    reason = check.gate(facts)
    if reason is not None:
        return {"skipped": reason}
    try:
        piece = check.evaluate(facts).to_json()
    except SolverTimeout:
        return {"timeout": True}
    del piece["check"]  # the record's checks map already carries the name
    return piece


def compute_pieces(line: str, needed: tuple[str, ...], budget_ms: int | None) -> dict[str, dict]:
    """Compute base facts and/or check verdicts for one graph6 line.

    Every piece reads one shared `Facts`, so each fact is computed at most
    once per graph, and only a check that reads an exhausted solver times
    out.  Pure per-line work, safe to run in worker processes; timing lives
    in a separate '_elapsed' piece so default records stay byte-stable.
    """
    deadline = time.monotonic() + budget_ms / 1000 if budget_ms else None
    facts = Facts(parse_graph6(line), deadline)
    elapsed: dict[str, float] = {}
    out: dict[str, dict] = {}
    for name in needed:
        t0 = time.monotonic()
        out[name] = _base_piece(facts) if name == BASE_KEY else _check_piece(CHECKS[name], facts)
        elapsed[name] = time.monotonic() - t0
    out["_elapsed"] = {k: round(v * 1000.0, 3) for k, v in elapsed.items()}
    return out


def _readable(check: str, piece) -> bool:
    """True iff a cached piece has every key its readers index."""
    if not isinstance(piece, dict):
        return False
    if check == BASE_KEY:
        return piece.keys() >= {"n", "m", "connectivity", "cubic", "gamma", "idom", "reed_bound"}
    verdict = "holds" in piece and "vacuous" in piece and "witness" in piece and "info" in piece
    return verdict or "skipped" in piece or piece.get("timeout") is True


class VerdictCache:
    """Append-only JSONL cache keyed by (graph6, check, version)."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[str, str, str], dict] = {}
        self.corrupt = 0
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        row = json.loads(raw)
                        key = (row["g"], row["c"], row["v"])
                        if _readable(row["c"], row["r"]):
                            self.entries[key] = row["r"]
                            continue
                    except (json.JSONDecodeError, KeyError, TypeError):
                        pass
                    self.corrupt += 1
        if self.corrupt:
            print(
                f"warning: ignored {self.corrupt} corrupt cache lines in {path}",
                file=sys.stderr,
            )

    def get(self, line: str, check: str) -> dict | None:
        return self.entries.get((line, check, __version__))

    def put(self, fh, line: str, check: str, value: dict) -> None:
        key = (line, check, __version__)
        if key in self.entries:
            return
        self.entries[key] = value
        fh.write(json.dumps({"g": line, "c": check, "v": __version__, "r": value}) + "\n")


def _pool_worker(payload: tuple[str, tuple[str, ...], int | None]) -> dict[str, dict]:
    line, needed, budget_ms = payload
    return compute_pieces(line, needed, budget_ms)


@dataclass
class SweepResult:
    records: list[dict]
    summary: dict


def run_sweep(
    lines: list[str],
    checks: tuple[str, ...] = DEFAULT_CHECKS,
    jobs: int = 1,
    cache_path: str | None = None,
    budget_ms: int | None = None,
    timings: bool = False,
) -> SweepResult:
    """Audit every line; records come back in input order.

    With a cache, already-computed pieces are reused verbatim, so a warm
    rerun recomputes nothing and emits identical bytes.
    """
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(CHECKS)})")
    cache = VerdictCache(cache_path) if cache_path else None
    wanted = (BASE_KEY, *checks)

    plans: list[tuple[int, str, tuple[str, ...]]] = []
    cached: list[dict[str, dict]] = []
    hits = 0
    misses = 0
    for idx, line in enumerate(lines):
        have: dict[str, dict] = {}
        missing = []
        for name in wanted:
            piece = cache.get(line, name) if cache else None
            if piece is None:
                missing.append(name)
            else:
                have[name] = piece
        hits += len(wanted) - len(missing)
        misses += len(missing)
        cached.append(have)
        if missing:
            plans.append((idx, line, tuple(missing)))

    computed: dict[int, dict[str, dict]] = {}
    if plans:
        payloads = [(line, needed, budget_ms) for _, line, needed in plans]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_pool_worker, payloads))
        else:
            results = [compute_pieces(*p) for p in payloads]
        for (idx, _, _), result in zip(plans, results):
            computed[idx] = result

    records: list[dict] = []
    counts = {
        name: {"holds": 0, "vacuous": 0, "violations": 0, "skipped": 0, "timeout": 0}
        for name in checks
    }
    cache_fh = open(cache_path, "a", encoding="utf-8") if cache else None
    try:
        for idx, line in enumerate(lines):
            pieces = dict(cached[idx])
            fresh = computed.get(idx, {})
            for name, value in fresh.items():
                if name == "_elapsed":
                    continue
                pieces[name] = value
                if cache_fh is None:
                    continue
                # budget artifacts are not facts about the graph; never cache them
                if value.get("timeout") or (name == BASE_KEY and None in (value["gamma"], value["idom"])):
                    continue
                cache.put(cache_fh, line, name, value)
            base = pieces[BASE_KEY]
            if base["gamma"] is not None and base["idom"] is not None:
                assert base["gamma"] <= base["idom"], "gamma must not exceed idom"
            record = {"graph6": line, **base, "checks": {}}
            for name in checks:
                piece = pieces[name]
                record["checks"][name] = piece
                status = piece_status(piece)
                counts[name]["violations" if status == "violation" else status] += 1
            if timings and "_elapsed" in fresh:
                record["elapsed_ms"] = fresh["_elapsed"]
            records.append(record)
    finally:
        if cache_fh is not None:
            cache_fh.close()

    summary = {
        "graphs": len(lines),
        "cache_hits": hits,
        "cache_misses": misses,
        "checks": counts,
    }
    return SweepResult(records=records, summary=summary)


def piece_status(piece: dict) -> str:
    """One word for a check piece: skipped, timeout, vacuous, holds or violation."""
    if "skipped" in piece:
        return "skipped"
    if piece.get("timeout"):
        return "timeout"
    if piece["vacuous"]:
        return "vacuous"
    return "holds" if piece["holds"] else "violation"


def record_to_jsonl(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def summary_to_csv(summary: dict) -> str:
    lines = ["check,holds,vacuous,violations,skipped,timeout"]
    for name, c in summary["checks"].items():
        lines.append(
            f"{name},{c['holds']},{c['vacuous']},{c['violations']},{c['skipped']},{c['timeout']}"
        )
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[dict], checks: tuple[str, ...]) -> str:
    """Flat per-graph table; each check column is a one-word status."""
    head = ["graph6", "n", "m", "connectivity", "cubic", "gamma", "idom", "reed_bound"]
    lines = [",".join(head + list(checks))]
    for rec in records:
        row = [str(rec[k]) for k in head]
        row += [piece_status(rec["checks"][name]) for name in checks]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def violations_found(result: SweepResult) -> bool:
    return any(c["violations"] for c in result.summary["checks"].values())
