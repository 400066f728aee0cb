"""Command-line interface: gamma, idom, sweep, csg, gen, verify.

Exit codes: 0 success, 1 audit violation under --strict (or a failed
verify), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack

from . import acceptance
from .checks import CHECKS, Facts
from .domination import SolverTimeout, gamma_exact, idom_exact
from .graph6 import Graph6ParseError, encode_graph6, parse_graph6, read_graph6_lines
from .graphs import Graph, gnp_random, is_graph_name, named_graph, random_cubic
from .seams import family_links
from .sweep import (
    CACHE_ENV,
    DEFAULT_CHECKS,
    check_names,
    open_path,
    record_to_jsonl,
    records_to_csv,
    run_sweep,
    summary_to_csv,
    violations_found,
)

USAGE_ERROR = 2


def _resolve_graph(text: str) -> Graph:
    if is_graph_name(text):
        return named_graph(text)
    return parse_graph6(text)


def _fmt_set(members) -> str:
    return "{" + ",".join(str(v) for v in sorted(members)) + "}"


def cmd_solve(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    deadline = time.monotonic() + args.budget_ms / 1000 if args.budget_ms else None
    try:
        cert = args.solver(g, deadline=deadline)
    except SolverTimeout as exc:
        print(f"timeout after {args.budget_ms} ms ({exc.phase})")
        return 0
    print(f"{args.command}={cert.size} set={_fmt_set(cert.members)}")
    return 0


def cmd_csg(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    # one deadline for the cycle listing, the link graph, the groups, the
    # printed link counts, gamma and the audit
    deadline = time.monotonic() + args.budget_ms / 1000 if args.budget_ms else None
    facts = Facts(g, deadline)
    try:
        families, groups = facts.families, facts.groups
        if not families:
            print("no mod-3 cycles")
            return 0
        print(f"collections: {len(families)}")
        for i, (fam, marked) in enumerate(zip(families, groups)):
            print(f"collection {i}: kind=CSG cycles={len(fam.cycles)} "
                  f"vertices={len(fam.vertex_union)} links={len(family_links(fam, deadline=deadline))}")
            for c in fam.cycles:
                print(f"  cycle {'-'.join(map(str, c.vertices))}")
            for j, (group, marks) in enumerate(marked):
                shown = _fmt_set(marks[0]) if marks else "none"
                print(f"  exclusive {j}: cycles={len(group)} assignment={shown}")
        verdict = CHECKS["family_dset"].evaluate(facts)
    except SolverTimeout as exc:
        print(f"verdict: timeout after {args.budget_ms} ms ({exc.phase})")
        return 0
    info = verdict.info
    print(
        f"verdict: holds={verdict.holds} gamma={info['gamma']} "
        f"candidate_size={info['candidate_size']} candidate={info['candidate']}"
    )
    return 0


# Each generator's required parameters; every one also takes count= and seed=.
_GENERATOR_KEYS = {"random-cubic": ("n",), "gnp": ("n", "p")}


def generate_corpus(spec: str) -> list[str]:
    """Graph6 lines from a generator spec.

    Specs: 'random-cubic n=10 count=50 seed=1' or 'gnp n=9 p=0.3 count=20
    seed=4'; seed (default 0) advances by one per graph.  A missing or
    unknown parameter, a value that is not a number (an integer but for
    p), a negative count or a p outside [0, 1] raises ValueError naming it.
    """
    parts = spec.split()
    if not parts:
        raise ValueError("empty generator spec")
    kind = parts[0]
    if kind not in _GENERATOR_KEYS:
        raise ValueError(f"unknown generator {kind!r}")
    kv: dict[str, int | float] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad generator parameter {part!r}")
        key, value = part.split("=", 1)
        if key not in (*_GENERATOR_KEYS[kind], "count", "seed"):
            raise ValueError(f"unknown {kind} parameter {key!r}")
        convert, noun = (float, "a number") if key == "p" else (int, "an integer")
        try:
            kv[key] = convert(value)
        except ValueError:
            raise ValueError(f"{key}= must be {noun}, got {value!r}") from None
        if key == "p" and not 0 <= kv[key] <= 1:  # false for NaN too
            raise ValueError(f"p= must lie in [0, 1], got {value}")
    for key in _GENERATOR_KEYS[kind]:
        if key not in kv:
            raise ValueError(f"{kind} spec lacks {key}=")
    count, seed, n = int(kv.get("count", 1)), int(kv.get("seed", 0)), int(kv["n"])
    if count < 0:
        raise ValueError(f"count= must not be negative, got {count}")
    if kind == "random-cubic":
        return [encode_graph6(random_cubic(n, seed + i)) for i in range(count)]
    return [encode_graph6(gnp_random(n, kv["p"], seed + i)) for i in range(count)]


def cmd_gen(args: argparse.Namespace) -> int:
    for line in generate_corpus(args.spec):
        print(line)
    return 0


def _load_corpus(corpus: str) -> list[str]:
    if not os.path.exists(corpus):
        return generate_corpus(corpus)
    try:
        return read_graph6_lines(corpus)
    except OSError as exc:
        raise ValueError(f"cannot open corpus {corpus}: {exc.strerror}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    lines = _load_corpus(args.corpus)
    checks = DEFAULT_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    # a misspelt check truncates no output; a bad output path fails before any graph is computed
    check_names(checks)
    with ExitStack() as stack:
        out = stack.enter_context(open_path(args.out, "w", "output")) if args.out else sys.stdout
        summary = stack.enter_context(open_path(args.summary, "w", "summary")) if args.summary else sys.stderr
        result = run_sweep(
            lines,
            checks=checks,
            jobs=args.jobs,
            cache_path=args.cache,
            budget_ms=args.budget_ms,
            timings=args.timings,
        )
        if args.format == "jsonl":
            for record in result.records:
                out.write(record_to_jsonl(record) + "\n")
        else:
            out.write(records_to_csv(result.records, checks))
        summary.write(summary_to_csv(result.summary))
    print(
        f"graphs={result.summary['graphs']} cache_hits={result.summary['cache_hits']} "
        f"cache_misses={result.summary['cache_misses']}",
        file=sys.stderr,
    )
    return 1 if args.strict and violations_found(result) else 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = acceptance.run_all(budget_ms=args.budget_ms)
    ok = acceptance.print_report(results)
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="domlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget-ms", type=_positive_int, default=None, help="time budget in ms")

    p = sub.add_parser("gamma", help="domination number of one graph")
    p.add_argument("graph", help="graph6 line or fixture name (e.g. petersen)")
    add_budget(p)
    p.set_defaults(func=cmd_solve, solver=gamma_exact)

    p = sub.add_parser("idom", help="independent domination number of one graph")
    p.add_argument("graph")
    add_budget(p)
    p.set_defaults(func=cmd_solve, solver=idom_exact)

    p = sub.add_parser("csg", help="seamless cycle collections and the family verdict")
    p.add_argument("graph")
    add_budget(p)
    p.set_defaults(func=cmd_csg)

    p = sub.add_parser("gen", help="emit graph6 lines from a generator spec")
    p.add_argument("spec", help="e.g. 'random-cubic n=10 count=50 seed=1'")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="audit a corpus, one JSONL record per graph")
    p.add_argument("--corpus", required=True, help="graph6 file or generator spec")
    p.add_argument("--checks", default="all", help="comma list or 'all'")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--cache", default=os.environ.get(CACHE_ENV))
    p.add_argument("--out", default=None, help="JSONL/CSV destination (default stdout)")
    p.add_argument("--summary", default=None, help="CSV summary destination (default stderr)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--strict", action="store_true", help="exit 1 on any violation")
    p.add_argument("--timings", action="store_true", help="include elapsed_ms per phase")
    add_budget(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--budget-ms", type=_positive_int, default=60000,
                   help="budget for the optional external-graph criterion")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Graph6ParseError as exc:
        print(f"graph6 parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
