"""Command-line interface: gamma, idom, sweep, csg, gen, verify.

Exit codes: 0 success, 1 audit violation under --strict (or a failed
verify), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import acceptance
from .checks import CHECKS, Facts
from .domination import SolverTimeout, gamma_exact, idom_exact
from .graph6 import Graph6ParseError, encode_graph6, parse_graph6, read_graph6_lines
from .graphs import Graph, gnp_random, is_graph_name, named_graph, random_cubic
from .seams import CHECK_FAMILY_DSET, BudgetExceeded, prune_nonexclusive, spaced_assignments
from .sweep import (
    CACHE_ENV,
    DEFAULT_CHECKS,
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


def cmd_gamma(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    deadline = time.monotonic() + args.budget_ms / 1000 if args.budget_ms else None
    try:
        cert = gamma_exact(g, deadline=deadline)
    except SolverTimeout:
        print(f"timeout after {args.budget_ms} ms")
        return 0
    print(f"gamma={cert.size} set={_fmt_set(cert.members)}")
    return 0


def cmd_idom(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    deadline = time.monotonic() + args.budget_ms / 1000 if args.budget_ms else None
    try:
        cert = idom_exact(g, deadline=deadline)
    except SolverTimeout:
        print(f"timeout after {args.budget_ms} ms")
        return 0
    print(f"idom={cert.size} set={_fmt_set(cert.members)}")
    return 0


def cmd_csg(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    # one deadline for the cycle listing, the link graph, gamma and the audit
    deadline = time.monotonic() + args.budget_ms / 1000 if args.budget_ms else None
    facts = Facts(g, deadline)
    try:
        families = facts.families
        if not families:
            print("no mod-3 cycles")
            return 0
        print(f"collections: {len(families)}")
        for i, fam in enumerate(families):
            print(f"collection {i}: kind=CSG cycles={len(fam.cycles)} "
                  f"vertices={len(fam.vertex_union)} links={len(fam.links)}")
            for c in fam.cycles:
                print(f"  cycle {'-'.join(map(str, c.vertices))}")
            for j, group in enumerate(prune_nonexclusive(fam)):
                try:
                    marks = spaced_assignments(group)
                except BudgetExceeded:  # the audit records this group as truncated too
                    shown = "truncated"
                else:
                    shown = _fmt_set(marks[0]) if marks else "none"
                print(f"  exclusive {j}: cycles={len(group)} assignment={shown}")
        verdict = CHECKS[CHECK_FAMILY_DSET].evaluate(facts)
    except SolverTimeout:
        print(f"verdict: timeout after {args.budget_ms} ms")
        return 0
    info = verdict.info
    print(
        f"verdict: holds={verdict.holds} gamma={info['gamma']} "
        f"candidate_size={info['candidate_size']} candidate={info['candidate']}"
    )
    return 0


def generate_corpus(spec: str, default_seed: int = 0) -> list[str]:
    """Graph6 lines from a generator spec.

    Specs: 'random-cubic n=10 count=50 seed=1' or 'gnp n=9 p=0.3 count=20
    seed=4'; seed advances by one per graph.
    """
    parts = spec.split()
    if not parts:
        raise ValueError("empty generator spec")
    kind = parts[0]
    kv: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"bad generator parameter {part!r}")
        key, value = part.split("=", 1)
        kv[key] = value
    count = int(kv.get("count", "1"))
    seed = int(kv.get("seed", str(default_seed)))
    if kind == "random-cubic":
        n = int(kv["n"])
        return [encode_graph6(random_cubic(n, seed + i)) for i in range(count)]
    if kind == "gnp":
        n = int(kv["n"])
        p = float(kv["p"])
        return [encode_graph6(gnp_random(n, p, seed + i)) for i in range(count)]
    raise ValueError(f"unknown generator {kind!r}")


def cmd_gen(args: argparse.Namespace) -> int:
    for line in generate_corpus(args.spec, default_seed=args.seed):
        print(line)
    return 0


def _load_corpus(corpus: str, default_seed: int) -> list[str]:
    if os.path.exists(corpus):
        return read_graph6_lines(corpus)
    return generate_corpus(corpus, default_seed=default_seed)


def cmd_sweep(args: argparse.Namespace) -> int:
    lines = _load_corpus(args.corpus, args.seed)
    checks = DEFAULT_CHECKS if args.checks == "all" else tuple(args.checks.split(","))
    result = run_sweep(
        lines,
        checks=checks,
        jobs=args.jobs,
        cache_path=args.cache,
        budget_ms=args.budget_ms,
        timings=args.timings,
    )
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.format == "jsonl":
            for record in result.records:
                out.write(record_to_jsonl(record) + "\n")
        else:
            out.write(records_to_csv(result.records, checks))
    finally:
        if out is not sys.stdout:
            out.close()
    csv = summary_to_csv(result.summary)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        print(csv, end="", file=sys.stderr)
    print(
        f"graphs={result.summary['graphs']} cache_hits={result.summary['cache_hits']} "
        f"cache_misses={result.summary['cache_misses']}",
        file=sys.stderr,
    )
    if args.strict and violations_found(result):
        return 1
    return 0


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
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("idom", help="independent domination number of one graph")
    p.add_argument("graph")
    add_budget(p)
    p.set_defaults(func=cmd_idom)

    p = sub.add_parser("csg", help="seamless cycle collections and the family verdict")
    p.add_argument("graph")
    add_budget(p)
    p.set_defaults(func=cmd_csg)

    p = sub.add_parser("gen", help="emit graph6 lines from a generator spec")
    p.add_argument("spec", help="e.g. 'random-cubic n=10 count=50 seed=1'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="audit a corpus, one JSONL record per graph")
    p.add_argument("--corpus", required=True, help="graph6 file or generator spec")
    p.add_argument("--checks", default="all", help="comma list or 'all'")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--cache", default=os.environ.get(CACHE_ENV))
    p.add_argument("--seed", type=int, default=0)
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
