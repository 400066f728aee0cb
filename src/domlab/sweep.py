"""Corpus sweep engine: per-graph audit records, caching, summaries.

One JSONL record per input graph, in input order regardless of
parallelism.  Records are byte-stable: keys sorted, compact separators,
and no timing fields unless explicitly requested, so two runs of the same
sweep diff clean.  The cache is an append-only JSONL file with one line
per computed graph, `{"v": code digest, "g": graph6, "r": {check: piece}}`.
A line of older code is skipped unread, undecoded when its digest leads it; one rule, `_cacheable`, decides
what a line may hold, and a line that does not parse or breaks the rule is
skipped whole with a warning.  Only a sweep that starts a helper process
loads `multiprocessing`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from math import ceil
from pathlib import Path

from .checks import CHECKS, Check, Facts
from .domination import SolverTimeout
from .graph6 import parse_graph6

CACHE_ENV = "DOMLAB_CACHE"
BASE_KEY = "base"
BASE_FIELDS = ("n", "m", "connectivity", "cubic", "gamma", "idom", "reed_bound")
_BASE_SET = frozenset(BASE_FIELDS)
DEFAULT_CHECKS = tuple(CHECKS)
# One summary column per piece status; a violation counts under "violations".
SUMMARY_COLUMNS = ("holds", "vacuous", "violations", "skipped", "timeout")


def source_digest(package: Path) -> str:
    """Short digest of the name and bytes of every `*.py` file in `package`."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        data = path.read_bytes()
        h.update(b"%s:%d:%s" % (path.name.encode(), len(data), data))
    return h.hexdigest()[:8]


# the cache key's code version: a change to any source byte misses every older verdict
CODE_DIGEST = source_digest(Path(__file__).parent)


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
    except SolverTimeout as exc:
        return {"timeout": True, "phase": exc.phase}


# One graph's pieces by name, and the milliseconds each one took.
Pieces = tuple[dict[str, dict], dict[str, float]]


def compute_pieces(line: str, needed: tuple[str, ...], budget_ms: int | None) -> Pieces:
    """Compute base facts and/or check verdicts for one graph6 line, and
    the milliseconds each piece took.

    Every piece reads one shared `Facts`, so each fact is computed at most
    once per graph, and only a check that reads an exhausted solver times
    out.  Pure per-line work, safe to run in helper processes; timings come
    back beside the pieces so default records stay byte-stable.
    """
    deadline = time.monotonic() + budget_ms / 1000 if budget_ms else None
    facts = Facts(parse_graph6(line), deadline)
    pieces: dict[str, dict] = {}
    elapsed: dict[str, float] = {}
    for name in needed:
        t0 = time.monotonic()
        pieces[name] = _base_piece(facts) if name == BASE_KEY else _check_piece(CHECKS[name], facts)
        elapsed[name] = round((time.monotonic() - t0) * 1000.0, 3)
    return pieces, elapsed


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


def open_path(path: str, mode: str, role: str):
    """`open(path, mode)`, text in UTF-8, raising an OSError as a ValueError naming the path."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {role} {path}: {exc.strerror}") from None


class VerdictCache:
    """Append-only JSONL cache: one line per graph, pieces keyed by check,
    served only under the live `CODE_DIGEST`."""

    def __init__(self, path: str):
        self.entries: dict[str, dict[str, dict]] = {}
        corrupt = 0
        live = b'{"v": "%s"' % CODE_DIGEST.encode()
        if os.path.exists(path):
            with open_path(path, "rb", "cache") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw or raw.startswith(b'{"v": "') and not raw.startswith(live):
                        continue  # older code's line, as `put` writes it: skipped undecoded
                    try:
                        row = json.loads(raw)
                        if row["v"] != CODE_DIGEST:
                            continue  # older code's verdicts are never served, so never read
                        line, pieces = row["g"], row["r"]
                        if isinstance(line, str) and isinstance(pieces, dict) and all(
                                _cacheable(check, piece) for check, piece in pieces.items()):
                            self.entries.setdefault(line, {}).update(pieces)
                            continue
                    except (ValueError, RecursionError, KeyError, TypeError):
                        pass  # not UTF-8 or not JSON (ValueError), or nested too deep to decode
                    corrupt += 1
        if corrupt:
            print(f"warning: ignored {corrupt} corrupt cache lines in {path}", file=sys.stderr)

    def get(self, line: str, names: tuple[str, ...]) -> dict[str, dict]:
        """The cached pieces of `line` among `names`, in a new dict."""
        have = self.entries.get(line, {})
        return {name: have[name] for name in names if name in have}

    def put(self, fh, line: str, pieces: dict[str, dict]) -> None:
        """Append to `fh` one line holding each of `pieces` that the cache
        may hold and lacks, and nothing when there is none."""
        have = self.entries.setdefault(line, {})
        new = {check: piece for check, piece in pieces.items()
               if check not in have and _cacheable(check, piece)}
        if new:
            have.update(new)
            fh.write(json.dumps({"v": CODE_DIGEST, "g": line, "r": new}) + "\n")


Payload = tuple[str, tuple[str, ...], int | None]


def _pull(cursor, payloads: list[Payload]) -> list[tuple[int, Pieces]]:
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


def _compute_all(payloads: list[Payload], jobs: int) -> list[Pieces]:
    """`compute_pieces` of every payload, in payload order, from `jobs`
    processes.

    The calling process is one of them: it starts one helper fewer than
    `jobs` or than there are payloads, then pulls payload indexes off the
    cursor the helpers share, so a slow graph holds up only the process
    computing it.  Without a helper it computes the payloads in order and
    never loads `multiprocessing`.  An exception a helper raised is raised
    here again, caused by a RuntimeError that carries the helper's
    traceback; a helper that dies without a reply raises RuntimeError.
    """
    width = min(jobs, len(payloads))
    if width < 2:
        return [compute_pieces(*payload) for payload in payloads]
    import multiprocessing

    cursor = multiprocessing.Value("i", 0)
    helpers: list[tuple[multiprocessing.Process, object]] = []
    try:
        for _ in range(width - 1):
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


def check_names(checks: tuple[str, ...]) -> None:
    """Raise ValueError unless each name is a known check, named once."""
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r} (known: {', '.join(CHECKS)})")
        if checks.count(name) > 1:
            raise ValueError(f"check {name!r} named more than once")


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
    check_names(checks)
    cache = VerdictCache(cache_path) if cache_path else None
    wanted = (BASE_KEY, *checks)

    # the cache file is opened before any graph is computed
    with open_path(cache_path, "a", "cache") if cache else nullcontext() as cache_fh:
        # each graph's pieces: the cache's first, then the computed ones
        graphs = [cache.get(line, wanted) if cache else {} for line in lines]
        hits = sum(map(len, graphs))
        todo = [(i, tuple(name for name in wanted if name not in have))
                for i, have in enumerate(graphs) if len(have) < len(wanted)]
        payloads = [(lines[i], needed, budget_ms) for i, needed in todo]
        elapsed: dict[int, dict[str, float]] = {}
        for (i, _), (fresh, took) in zip(todo, _compute_all(payloads, jobs)):
            graphs[i].update(fresh)
            elapsed[i] = took

        records: list[dict] = []
        counts = {name: dict.fromkeys(SUMMARY_COLUMNS, 0) for name in checks}
        for i, (line, pieces) in enumerate(zip(lines, graphs)):
            base = pieces[BASE_KEY]
            if base["gamma"] is not None and base["idom"] is not None:
                assert base["gamma"] <= base["idom"], "gamma must not exceed idom"
            record = {"graph6": line, **base, "checks": {name: pieces[name] for name in checks}}
            for name, piece in record["checks"].items():
                status = piece_status(piece)
                counts[name]["violations" if status == "violation" else status] += 1
            if i in elapsed:
                if cache:
                    cache.put(cache_fh, line, pieces)
                if timings:
                    record["elapsed_ms"] = elapsed[i]
            records.append(record)

    summary = {
        "graphs": len(lines),
        "cache_hits": hits,
        "cache_misses": len(lines) * len(wanted) - hits,
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


# the encoder `json.dumps` would build anew on every record
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def record_to_jsonl(record: dict) -> str:
    return _RECORD_ENCODER.encode(record)


def summary_to_csv(summary: dict) -> str:
    lines = [",".join(("check", *SUMMARY_COLUMNS))]
    for name, c in summary["checks"].items():
        lines.append(",".join([name, *(str(c[col]) for col in SUMMARY_COLUMNS)]))
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
