"""Corpus sweep engine: per-graph audit records, caching, summaries.

One JSONL record per input graph, in input order regardless of
parallelism.  Records are byte-stable: keys sorted, compact separators,
and no timing fields unless explicitly requested, so two runs of the same
sweep diff clean.  The cache is an append-only JSONL file keyed by
(graph6, check, code version); corrupt lines are skipped with a warning.
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
from .cycles import BudgetExceeded, first_mod3_cycle
from .domination import (
    SolverTimeout,
    enumerate_min_dsets,
    gamma_exact,
    idom_exact,
    induced_edge_count,
    is_dominating,
)
from .graph6 import parse_graph6
from .graphs import Graph, delete_edges, is_connected, is_cubic, vertex_connectivity
from .reduction import (
    check_detach_fact,
    check_pair_separation,
    detachable_vertices,
    find_forbidden_core,
    find_induced_claw,
    removable_edges,
)
from .seams import family_dset_audit

CACHE_ENV = "DOMLAB_CACHE"
BASE_KEY = "base"

# enumeration caps keeping per-graph audit work bounded
DSET_CAP = 5000
ENUM_GUARD = 24


def _subsets_upto2(items: list[int]):
    yield frozenset()
    for i, a in enumerate(items):
        yield frozenset((a,))
        for b in items[i + 1:]:
            yield frozenset((a, b))


def _check_claw_free(g: Graph, ctx: dict) -> dict:
    claw = find_induced_claw(g)
    if claw is not None:
        return _verdict(True, vacuous=True, info={"claw": list(claw)})
    if ctx["gamma"] != ctx["idom"]:
        return _verdict(False, witness={"gamma": ctx["gamma"], "idom": ctx["idom"]})
    return _verdict(True, info={"gamma": ctx["gamma"], "idom": ctx["idom"]})


def _check_core_free(g: Graph, ctx: dict) -> dict:
    core = find_forbidden_core(g)
    if core is not None:
        return _verdict(True, vacuous=True, info={"core": [core.v1, core.v2]})
    if ctx["gamma"] != ctx["idom"]:
        return _verdict(False, witness={"gamma": ctx["gamma"], "idom": ctx["idom"]})
    return _verdict(True, info={"gamma": ctx["gamma"], "idom": ctx["idom"]})


def _min_edge_dsets(g: Graph) -> tuple[list[frozenset[int]], bool, int]:
    enum = enumerate_min_dsets(g, limit=DSET_CAP)
    counts = [(induced_edge_count(g, d), d) for d in enum.dsets]
    floor = min(c for c, _ in counts)
    return [d for c, d in counts if c == floor], enum.truncated, floor


def _check_pair_separation_sweep(g: Graph, ctx: dict) -> dict:
    if g.max_degree() > 3:
        return {"skipped": "max degree > 3"}
    if g.n > ENUM_GUARD:
        return {"skipped": f"n > {ENUM_GUARD}"}
    keepers, truncated, floor = _min_edge_dsets(g)
    vacuous_count = 0
    for dset in keepers:
        verdict = check_pair_separation(g, dset)
        if not verdict.holds:
            return _verdict(False, witness=verdict.witness)
        if verdict.vacuous:
            vacuous_count += 1
    info = {
        "dsets": len(keepers),
        "vacuous_dsets": vacuous_count,
        "min_induced_edges": floor,
        "truncated": truncated,
    }
    if vacuous_count == len(keepers):
        return _verdict(True, vacuous=True, info=info)
    return _verdict(True, info=info)


def _check_edge_removal(g: Graph, ctx: dict) -> dict:
    if g.n > ENUM_GUARD:
        return {"skipped": f"n > {ENUM_GUARD}"}
    enum = enumerate_min_dsets(g, limit=DSET_CAP)
    checked = 0
    for dset in enum.dsets:
        for e in sorted(removable_edges(g, dset)):
            checked += 1
            if not is_dominating(delete_edges(g, [e]), dset):
                return _verdict(
                    False, witness={"set": sorted(dset), "edge": list(e)}
                )
    return _verdict(
        True, info={"dsets": len(enum.dsets), "edges_checked": checked, "truncated": enum.truncated}
    )


def _check_detach(g: Graph, ctx: dict) -> dict:
    if g.n > ENUM_GUARD:
        return {"skipped": f"n > {ENUM_GUARD}"}
    enum = enumerate_min_dsets(g, limit=DSET_CAP)
    checked = 0
    vacuous_count = 0
    for dset in enum.dsets:
        pool = sorted(detachable_vertices(g, dset))
        for chosen in _subsets_upto2(pool):
            verdict = check_detach_fact(g, dset, chosen)
            checked += 1
            if not verdict.holds:
                return _verdict(
                    False, witness={"set": sorted(dset), "chosen": sorted(chosen)}
                )
            if verdict.vacuous:
                vacuous_count += 1
    return _verdict(
        True,
        info={
            "dsets": len(enum.dsets),
            "transforms": checked,
            "vacuous": vacuous_count,
            "truncated": enum.truncated,
        },
    )


def _check_third_bound_sweep(g: Graph, ctx: dict) -> dict:
    if not ctx["cubic"] or not ctx["connected"]:
        return {"skipped": "not a connected cubic graph"}
    bound = ceil(g.n / 3)
    if ctx["gamma"] > bound:
        return _verdict(False, witness={"gamma": ctx["gamma"], "bound": bound})
    return _verdict(True, info={"gamma": ctx["gamma"], "bound": bound})


def _check_excess_gamma_sweep(g: Graph, ctx: dict) -> dict:
    if not ctx["cubic"] or not ctx["connected"]:
        return {"skipped": "not a connected cubic graph"}
    bound = ceil(g.n / 3)
    if ctx["gamma"] <= bound:
        return _verdict(True, vacuous=True, info={"gamma": ctx["gamma"], "bound": bound})
    if ctx["gamma"] != ctx["idom"]:
        return _verdict(
            False, witness={"gamma": ctx["gamma"], "idom": ctx["idom"], "bound": bound}
        )
    return _verdict(True, info={"gamma": ctx["gamma"], "idom": ctx["idom"], "bound": bound})


def _check_mod3_nonempty(g: Graph, ctx: dict) -> dict:
    if ctx["connectivity"] < 3:
        return {"skipped": "connectivity < 3"}
    cyc = first_mod3_cycle(g)
    if cyc is None:
        return _verdict(False, witness={"n": g.n, "m": g.m})
    return _verdict(True, info={"cycle": list(cyc.vertices)})


def _check_family_dset(g: Graph, ctx: dict) -> dict:
    if ctx["connectivity"] < 3:
        return {"skipped": "connectivity < 3"}
    # the gate above already read the connectivity computed once per graph
    verdict = family_dset_audit(g, deadline=ctx["deadline"], min_connectivity=0)
    piece = verdict.to_json()
    del piece["check"]  # the checks map already carries the name
    return piece


def _verdict(holds: bool, vacuous: bool = False, witness: dict | None = None, info: dict | None = None) -> dict:
    return {
        "holds": holds,
        "vacuous": vacuous,
        "witness": witness,
        "info": info or {},
    }


CHECKS = {
    "claw_free_equal": _check_claw_free,
    "core_free_equal": _check_core_free,
    "tight_pair_separation": _check_pair_separation_sweep,
    "edge_removal": _check_edge_removal,
    "detach_transform": _check_detach,
    "third_bound": _check_third_bound_sweep,
    "excess_gamma_independent": _check_excess_gamma_sweep,
    "mod3_cycle_exists": _check_mod3_nonempty,
    "family_dset": _check_family_dset,
}
DEFAULT_CHECKS = tuple(CHECKS)


def compute_pieces(line: str, needed: tuple[str, ...], budget_ms: int | None) -> dict[str, dict]:
    """Compute base facts and/or check verdicts for one graph6 line.

    Pure per-line work, safe to run in worker processes; timing lives in a
    separate '_elapsed' piece so default records stay byte-stable.
    """
    g = parse_graph6(line)
    deadline = time.monotonic() + budget_ms / 1000 if budget_ms else None
    elapsed: dict[str, float] = {}
    out: dict[str, dict] = {}

    t0 = time.monotonic()
    connected = is_connected(g)
    cubic = is_cubic(g)
    connectivity = vertex_connectivity(g) if g.n else 0
    timed_out = False
    try:
        gamma = gamma_exact(g, deadline=deadline).size
        idom = idom_exact(g, deadline=deadline).size
    except SolverTimeout:
        gamma = idom = None
        timed_out = True
    elapsed[BASE_KEY] = time.monotonic() - t0
    if BASE_KEY in needed:
        out[BASE_KEY] = {
            "n": g.n,
            "m": g.m,
            "connectivity": connectivity,
            "cubic": cubic,
            "gamma": gamma,
            "idom": idom,
            "reed_bound": ceil(g.n / 3),
        }
    ctx = {
        "connected": connected,
        "cubic": cubic,
        "connectivity": connectivity,
        "gamma": gamma,
        "idom": idom,
        "deadline": deadline,
    }
    for name in needed:
        if name == BASE_KEY:
            continue
        t0 = time.monotonic()
        if timed_out:
            out[name] = {"timeout": True}
        else:
            try:
                out[name] = CHECKS[name](g, ctx)
            except (SolverTimeout, BudgetExceeded):
                out[name] = {"timeout": True}
        elapsed[name] = time.monotonic() - t0
    out["_elapsed"] = {k: round(v * 1000.0, 3) for k, v in elapsed.items()}
    return out


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
                        self.entries[key] = row["r"]
                    except (json.JSONDecodeError, KeyError, TypeError):
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
                if value.get("timeout") or (name == BASE_KEY and value.get("gamma") is None):
                    continue
                cache.put(cache_fh, line, name, value)
            base = pieces[BASE_KEY]
            if base["gamma"] is not None and base["idom"] is not None:
                assert base["gamma"] <= base["idom"], "gamma must not exceed idom"
            record = {"graph6": line, **base, "checks": {}}
            for name in checks:
                piece = pieces[name]
                record["checks"][name] = piece
                bucket = counts[name]
                if "skipped" in piece:
                    bucket["skipped"] += 1
                elif piece.get("timeout"):
                    bucket["timeout"] += 1
                elif piece["vacuous"]:
                    bucket["vacuous"] += 1
                elif piece["holds"]:
                    bucket["holds"] += 1
                else:
                    bucket["violations"] += 1
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
        for name in checks:
            piece = rec["checks"][name]
            if "skipped" in piece:
                row.append("skipped")
            elif piece.get("timeout"):
                row.append("timeout")
            elif piece["vacuous"]:
                row.append("vacuous")
            elif piece["holds"]:
                row.append("holds")
            else:
                row.append("violation")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def violations_found(result: SweepResult) -> bool:
    return any(c["violations"] for c in result.summary["checks"].values())
