"""Corpus sweep engine: per-graph audit records, caching, summaries.

One JSONL record per input graph, in input order regardless of
parallelism.  Records are byte-stable: keys sorted, compact separators,
and no timing fields unless explicitly requested, so two runs of the same
sweep diff clean.  The cache is an append-only JSONL file keyed by
(graph6, check, code version); corrupt lines, which do not parse or hold
a piece `_cacheable` rejects, are skipped with a warning.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from math import ceil

from . import __version__
from .checks import CHECKS, Check, Facts
from .domination import SolverTimeout
from .graph6 import parse_graph6

CACHE_ENV = "DOMLAB_CACHE"
BASE_KEY = "base"
BASE_FIELDS = ("n", "m", "connectivity", "cubic", "gamma", "idom", "reed_bound")
_BASE_SET = frozenset(BASE_FIELDS)
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
        return check.evaluate(facts).to_json()
    except SolverTimeout:
        return {"timeout": True}


def compute_pieces(line: str, needed: tuple[str, ...], budget_ms: int | None) -> dict[str, dict]:
    """Compute base facts and/or check verdicts for one graph6 line.

    Every piece reads one shared `Facts`, so each fact is computed at most
    once per graph, and only a check that reads an exhausted solver times
    out.  Pure per-line work, safe to run in helper processes; timing lives
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


def _cacheable(check: str, piece) -> bool:
    """True iff the cache may store and serve `piece` as `check`: a base
    piece with every field and solved γ ≤ i, a verdict with every key its
    readers index, or a skip.  A timeout or an unsolved γ or i is a budget
    artifact, not a fact about the graph, so it is neither stored nor served."""
    if not isinstance(piece, dict):
        return False
    if check == BASE_KEY:
        if not piece.keys() >= _BASE_SET:
            return False
        gamma, idom = piece["gamma"], piece["idom"]
        return gamma is not None and idom is not None and gamma <= idom
    verdict = "holds" in piece and "vacuous" in piece and "witness" in piece and "info" in piece
    return verdict or "skipped" in piece


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
                        if _cacheable(row["c"], row["r"]):
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


Payload = tuple[str, tuple[str, ...], int | None]


def _pull(cursor, payloads: list[Payload]) -> list[tuple[int, dict[str, dict]]]:
    """Compute payloads by index off the shared cursor until none is left."""
    done = []
    while True:
        with cursor.get_lock():
            idx = cursor.value
            cursor.value = idx + 1
        if idx >= len(payloads):
            return done
        done.append((idx, compute_pieces(*payloads[idx])))


def _helper(conn, cursor, payloads: list[Payload]) -> None:
    """Body of a helper process: send back its pieces, or what it raised
    with the traceback text."""
    try:
        conn.send(_pull(cursor, payloads))
    except Exception as exc:
        conn.send((exc, traceback.format_exc()))
    finally:
        conn.close()


def _compute_all(payloads: list[Payload], jobs: int) -> list[dict[str, dict]]:
    """Pieces of every payload, in payload order, from `jobs` processes.

    The calling process is one of them: it starts one helper fewer than
    `jobs` or than there are payloads, then pulls payload indexes off the
    cursor the helpers share, so a slow graph holds up only the process
    computing it; with one job no process is started.  An exception a
    helper raised is raised here again, caused by a RuntimeError that
    carries the helper's traceback; a helper that dies without a reply
    raises RuntimeError.
    """
    cursor = multiprocessing.Value("i", 0)
    helpers: list[tuple[multiprocessing.Process, object]] = []
    try:
        for _ in range(min(jobs, len(payloads)) - 1):
            receive, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_helper, args=(send, cursor, payloads), daemon=True)
            proc.start()
            send.close()  # the helper's copy alone keeps the pipe open, so its death reads as EOF
            helpers.append((proc, receive))
        done = _pull(cursor, payloads)
        for k, (_, receive) in enumerate(helpers):
            try:
                got = receive.recv()
            except EOFError:
                raise RuntimeError(f"sweep helper {k} died") from None
            if isinstance(got, tuple):
                exc, trace = got
                raise exc from RuntimeError(f"in sweep helper {k}:\n{trace}")
            done += got
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, receive in helpers:
            proc.join()
            receive.close()
    return [pieces for _, pieces in sorted(done, key=lambda pair: pair[0])]


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
        for (idx, _, _), result in zip(plans, _compute_all(payloads, jobs)):
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
                if cache_fh is not None and _cacheable(name, value):
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
    head = ["graph6", *BASE_FIELDS]
    lines = [",".join(head + list(checks))]
    for rec in records:
        row = [str(rec[k]) for k in head]
        row += [piece_status(rec["checks"][name]) for name in checks]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def violations_found(result: SweepResult) -> bool:
    return any(c["violations"] for c in result.summary["checks"].values())
