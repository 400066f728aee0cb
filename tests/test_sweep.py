import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domlab import Graph, cli, encode_graph6, named_graph, prune_nonexclusive, random_cubic, seams, sweep
from domlab.checks import CHECKS, Check, Facts
from domlab.cli import generate_corpus
from domlab.sweep import (
    CODE_DIGEST,
    DEFAULT_CHECKS,
    VerdictCache,
    piece_status,
    record_to_jsonl,
    run_sweep,
    summary_to_csv,
)

from _oracles import family_fault, spaced_assignments_by_search


FIXTURE_LINES = [encode_graph6(named_graph(n)) for n in ("k4", "c6", "prism")]

RECORD_KEYS = {"graph6", "n", "m", "connectivity", "cubic", "gamma", "idom", "reed_bound", "checks"}


def wheel5() -> Graph:
    # hub 0 plus a 5-cycle rim; the family pipeline cannot reach gamma=1
    return Graph.from_edges(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])


def test_run_sweep_records():
    result = run_sweep(FIXTURE_LINES)
    assert len(result.records) == 3
    for line, rec in zip(FIXTURE_LINES, result.records):
        assert set(rec) == RECORD_KEYS
        assert rec["graph6"] == line
        assert rec["gamma"] <= rec["idom"]
        assert rec["reed_bound"] == -(-rec["n"] // 3)
        assert set(rec["checks"]) == set(DEFAULT_CHECKS)
    k4 = result.records[0]
    assert k4["connectivity"] == 3 and k4["cubic"] is True
    assert k4["checks"]["third_bound"]["holds"]
    assert k4["checks"]["family_dset"]["holds"]
    c6 = result.records[1]
    assert c6["checks"]["third_bound"] == {"skipped": "not a connected cubic graph"}
    assert c6["checks"]["mod3_cycle_exists"] == {"skipped": "connectivity < 3"}


def test_summary_counts_match_records():
    result = run_sweep(FIXTURE_LINES)
    for name in DEFAULT_CHECKS:
        bucket = result.summary["checks"][name]
        assert sum(bucket.values()) == 3


def test_check_selection_and_unknown():
    result = run_sweep(FIXTURE_LINES, checks=("third_bound",))
    assert set(result.records[0]["checks"]) == {"third_bound"}
    with pytest.raises(ValueError):
        run_sweep(FIXTURE_LINES, checks=("nonsense",))


def test_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    first = run_sweep(FIXTURE_LINES, cache_path=cache)
    assert first.summary["cache_hits"] == 0
    second = run_sweep(FIXTURE_LINES, cache_path=cache)
    assert second.summary["cache_misses"] == 0
    assert [record_to_jsonl(r) for r in first.records] == [
        record_to_jsonl(r) for r in second.records
    ]


def test_code_digest_changes_with_one_source_byte(tmp_path):
    package = Path(sweep.__file__).parent
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert sweep.source_digest(tmp_path) == CODE_DIGEST
    target = tmp_path / "reduction.py"
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert sweep.source_digest(tmp_path) != CODE_DIGEST


def test_cache_keyed_by_version(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run_sweep(FIXTURE_LINES[:1], checks=("third_bound",), cache_path=str(cache))
    stale = cache.read_text().replace('"v": "', '"v": "0.0.-')
    # a line in the layout of caches that held one check per line
    [row] = [json.loads(raw) for raw in stale.splitlines()]
    per_check = {"g": row["g"], "c": "base", "v": row["v"], "r": row["r"]["base"]}
    cache.write_text(stale + json.dumps(per_check) + "\n", encoding="utf-8")
    rerun = run_sweep(FIXTURE_LINES[:1], checks=("third_bound",), cache_path=str(cache))
    assert rerun.summary["cache_hits"] == 0
    assert "corrupt" not in capsys.readouterr().err  # stale lines are skipped, not counted


def test_cache_survives_corruption(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run_sweep(FIXTURE_LINES, cache_path=str(cache))
    cache.write_text(cache.read_text() + "{broken json\n", encoding="utf-8")
    result = run_sweep(FIXTURE_LINES, cache_path=str(cache))
    assert result.summary["cache_misses"] == 0
    assert "corrupt" in capsys.readouterr().err


def test_cache_base_with_gamma_above_idom_is_corrupt(tmp_path, capsys):
    assert cli.main(["sweep", "--corpus", "random-cubic n=4 count=1"]) == 0
    plain = capsys.readouterr().out
    # K4 is `C~`; every key is present, but no graph has gamma above idom
    cache = tmp_path / "cache.jsonl"
    base = {"n": 4, "m": 6, "connectivity": 3, "cubic": True, "gamma": 1, "idom": 1, "reed_bound": 2}
    row = {"g": "C~", "v": CODE_DIGEST, "r": {"base": base}}
    # under the live digest the true line is served ...
    cache.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert cli.main(["sweep", "--corpus", "random-cubic n=4 count=1", "--checks", "third_bound",
                     "--cache", str(cache)]) == 0
    assert "cache_hits=1" in capsys.readouterr().err
    # ... and the same line with gamma above idom is not
    cache.write_text(json.dumps({**row, "r": {"base": {**base, "gamma": 2}}}) + "\n", encoding="utf-8")
    assert cli.main(["sweep", "--corpus", "random-cubic n=4 count=1", "--cache", str(cache)]) == 0
    out, err = capsys.readouterr()
    assert "warning: ignored 1 corrupt cache lines" in err
    assert "cache_hits=0" in err
    assert out == plain


@pytest.mark.parametrize("junk", [b"\xff\xfe bad bytes\n", b"[" * 200_000 + b"\n"], ids=["not-utf8", "deep"])
def test_cache_line_that_cannot_be_decoded_is_corrupt(tmp_path, capsys, junk):
    # bytes that are not UTF-8 once ended the sweep with exit 2, and a
    # nesting too deep for the decoder with a RecursionError
    argv = ["sweep", "--corpus", "random-cubic n=4 count=1", "--checks", "third_bound"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(junk)
    assert cli.main(argv + ["--cache", str(cache)]) == 0
    out, err = capsys.readouterr()
    assert f"warning: ignored 1 corrupt cache lines in {cache}" in err
    assert out == plain


UNSOLVED_BASE = {"n": 4, "m": 6, "connectivity": 3, "cubic": True, "gamma": None, "idom": None, "reed_bound": 2}


@pytest.mark.parametrize("check, piece", [
    ("claw_free_equal", 1),
    ("base", {}),
    ("third_bound", {"timeout": True}),  # budget artifacts are never cached, so never served
    ("base", UNSOLVED_BASE),
])
def test_cache_row_missing_what_its_readers_index_is_corrupt(tmp_path, capsys, check, piece):
    line = encode_graph6(named_graph("k4"))
    assert cli.main(["sweep", "--corpus", "random-cubic n=4 count=1"]) == 0
    plain = capsys.readouterr().out
    cache = tmp_path / "cache.jsonl"
    row = {"g": line, "v": CODE_DIGEST, "r": {check: piece}}
    cache.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert cli.main(["sweep", "--corpus", "random-cubic n=4 count=1", "--cache", str(cache)]) == 0
    out, err = capsys.readouterr()
    assert "warning: ignored 1 corrupt cache lines" in err
    assert "cache_hits=0" in err  # the piece was recomputed
    assert out == plain


def test_cache_put_writes_only_what_the_cache_may_serve(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = VerdictCache(str(path))
    skip = {"skipped": "connectivity < 3"}
    with open(path, "a", encoding="utf-8") as fh:
        cache.put(fh, "C~", {"base": UNSOLVED_BASE, "third_bound": {"timeout": True}})
        cache.put(fh, "C~", {"mod3_cycle_exists": skip})
    rows = [json.loads(raw) for raw in path.read_text().splitlines()]
    assert rows == [{"g": "C~", "v": CODE_DIGEST, "r": {"mod3_cycle_exists": skip}}]
    assert VerdictCache(str(path)).get("C~", ("base", "third_bound", "mod3_cycle_exists")) == {
        "mod3_cycle_exists": skip}


def k4_cache_line(tmp_path) -> dict:
    """The one cache line a cold sweep of K4 under `third_bound` writes."""
    cache = tmp_path / "k4.jsonl"
    run_sweep(FIXTURE_LINES[:1], checks=("third_bound",), cache_path=str(cache))
    [raw] = cache.read_text().splitlines()
    return json.loads(raw)


@pytest.mark.parametrize("malformed", [
    lambda good: [],
    lambda good: "x",
    lambda good: {"g": good["g"], "r": good["r"]},  # no "v"
    lambda good: {**good, "r": list(good["r"].items())},
    lambda good: {**good, "g": [good["g"]]},
    lambda good: {**good, "r": {**good["r"], "claw_free_equal": {"timeout": True}}},
], ids=["list", "string", "no-v", "r-list", "g-list", "one-bad-piece"])
def test_malformed_cache_line_counts_once_and_serves_nothing(tmp_path, capsys, malformed):
    good = k4_cache_line(tmp_path)
    assert set(good["r"]) == {"base", "third_bound"}
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(malformed(good)) + "\n", encoding="utf-8")
    rerun = run_sweep(FIXTURE_LINES[:1], checks=("third_bound",), cache_path=str(cache))
    assert f"warning: ignored 1 corrupt cache lines in {cache}" in capsys.readouterr().err
    assert rerun.summary["cache_hits"] == 0


def test_stale_cache_lines_are_skipped_undecoded(tmp_path, monkeypatch, capsys):
    good = k4_cache_line(tmp_path)
    assert list(good) == ["v", "g", "r"]  # the digest leads every line `put` writes
    other = "0" * 8 if CODE_DIGEST != "0" * 8 else "1" * 8
    stale = json.dumps({**good, "v": other})
    older_layout = json.dumps({"g": good["g"], "v": other, "r": good["r"]})
    broken = '{"v": "%s", "g": ' % CODE_DIGEST
    cache = tmp_path / "cache.jsonl"
    cache.write_text("\n".join([stale] * 5 + [older_layout, json.dumps(good), broken]) + "\n",
                     encoding="utf-8")
    decoded = []
    loads = json.loads

    def counted(raw, *args, **kwargs):
        decoded.append(raw)
        return loads(raw, *args, **kwargs)

    monkeypatch.setattr(sweep.json, "loads", counted)
    cached = VerdictCache(str(cache))
    # the five stale lines in `put`'s layout are never decoded; a line in
    # another layout, the live line and the broken live line are, as before
    assert len(decoded) == 3
    assert f"warning: ignored 1 corrupt cache lines in {cache}" in capsys.readouterr().err
    assert cached.get(good["g"], ("base", "third_bound")) == good["r"]


def test_cache_lines_of_one_graph_merge_and_the_later_wins(tmp_path):
    good = k4_cache_line(tmp_path)
    later = {"skipped": "a later line"}
    rows = [{**good, "r": {"base": good["r"]["base"]}},
            {**good, "r": {"third_bound": good["r"]["third_bound"]}},
            {**good, "r": {"third_bound": later}}]
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert VerdictCache(str(cache)).get(good["g"], ("base", "third_bound", "claw_free_equal")) == {
        "base": good["r"]["base"], "third_bound": later}


def test_cache_appends_one_line_per_computed_graph(tmp_path):
    lines = generate_corpus("random-cubic n=8 count=4 seed=3") + FIXTURE_LINES
    assert len(set(lines)) == len(lines)
    cache = tmp_path / "cache.jsonl"

    def appended(batch: list[str]) -> int:
        before = len(cache.read_text().splitlines()) if cache.exists() else 0
        run_sweep(batch, cache_path=str(cache))
        return len(cache.read_text().splitlines()) - before

    assert appended(lines[::2]) == len(lines[::2])
    assert appended(lines) == len(lines[1::2])  # only the graphs not yet cached
    assert appended(lines) == 0


def test_partial_sweeps_fill_one_cache_that_a_warm_rerun_reads_whole(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    lines = generate_corpus("random-cubic n=8 count=3 seed=3") + FIXTURE_LINES
    cold = run_sweep(lines)
    want = ([record_to_jsonl(r) for r in cold.records], summary_to_csv(cold.summary))

    def output(result) -> tuple[list[str], str]:
        return [record_to_jsonl(r) for r in result.records], summary_to_csv(result.summary)

    partial = st.tuples(st.lists(st.sampled_from(range(len(lines))), unique=True, min_size=1),
                        st.lists(st.sampled_from(DEFAULT_CHECKS), unique=True),
                        st.sampled_from([1, 2]))

    @settings(max_examples=10)
    @given(st.lists(partial, min_size=1, max_size=3), st.sampled_from([1, 2]))
    def fill_then_rerun(sweeps, jobs):
        cache = tmp_path / "cache.jsonl"
        cache.unlink(missing_ok=True)
        for picks, checks, sweep_jobs in sweeps:
            run_sweep([lines[i] for i in sorted(picks)], checks=tuple(checks), jobs=sweep_jobs,
                      cache_path=str(cache))
        assert output(run_sweep(lines, jobs=jobs, cache_path=str(cache))) == want
        warm = run_sweep(lines, jobs=jobs, cache_path=str(cache))
        assert warm.summary["cache_misses"] == 0
        assert output(warm) == want

    fill_then_rerun()


def test_jsonl_is_sorted_and_compact():
    result = run_sweep(FIXTURE_LINES, checks=("third_bound",))
    line = record_to_jsonl(result.records[0])
    parsed = json.loads(line)
    assert list(parsed) == sorted(parsed)
    assert ": " not in line


def test_timings_flag_adds_elapsed(tmp_path):
    plain = run_sweep(FIXTURE_LINES[:1], checks=("third_bound",))
    timed = run_sweep(FIXTURE_LINES[:1], checks=("third_bound",), timings=True)
    assert "elapsed_ms" not in plain.records[0]
    assert "elapsed_ms" in timed.records[0]


def test_summary_csv_shape():
    result = run_sweep(FIXTURE_LINES, checks=("third_bound", "claw_free_equal"))
    csv = summary_to_csv(result.summary)
    lines = csv.strip().split("\n")
    assert lines[0] == "check,holds,vacuous,violations,skipped,timeout"
    assert len(lines) == 3


def test_generate_corpus():
    lines = generate_corpus("random-cubic n=8 count=4 seed=2")
    assert len(lines) == 4 and len(set(lines)) >= 2
    assert lines == generate_corpus("random-cubic n=8 count=4 seed=2")
    gnp = generate_corpus("gnp n=7 p=0.4 count=3 seed=5")
    assert len(gnp) == 3
    with pytest.raises(ValueError):
        generate_corpus("mystery n=3")
    with pytest.raises(ValueError):
        generate_corpus("gnp n=7 oops")


def test_cli_gamma_and_idom(capsys):
    assert cli.main(["gamma", "petersen"]) == 0
    assert capsys.readouterr().out.strip() == "gamma=3 set={0,2,6}"
    assert cli.main(["gamma", "C~"]) == 0
    assert capsys.readouterr().out.startswith("gamma=1")
    assert cli.main(["idom", "k13"]) == 0
    assert capsys.readouterr().out.strip() == "idom=1 set={0}"


@pytest.mark.parametrize("command", ["gamma", "idom"])
def test_cli_solver_reports_its_timeout(capsys, command):
    # an exact solve on 60 cubic vertices takes far longer than 1 ms
    assert cli.main([command, encode_graph6(random_cubic(60, 1)), "--budget-ms", "1"]) == 0
    phase = {"gamma": "domination solve", "idom": "independent domination solve"}[command]
    assert capsys.readouterr().out == f"timeout after 1 ms ({phase})\n"


def test_cli_parse_failure_exits_2(capsys):
    assert cli.main(["gamma", "!!"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_csg_no_cycles(capsys):
    assert cli.main(["csg", "c4"]) == 0
    assert capsys.readouterr().out.strip() == "no mod-3 cycles"


def test_cli_csg_c6(capsys):
    assert cli.main(["csg", "c6"]) == 0
    out = capsys.readouterr().out
    assert "assignment={0,3}" in out
    assert "candidate_size=2" in out


def test_cli_csg_matches_golden_output(capsys):
    golden = (Path(__file__).parent / "data" / "csg_golden.txt").read_text(encoding="utf-8")
    sections = golden.split("== ")[1:]
    assert len(sections) == 8
    for section in sections:
        graph, expected = section.split("\n", 1)
        assert cli.main(["csg", graph]) == 0
        assert capsys.readouterr().out == expected, graph
        for fam in Facts(cli._resolve_graph(graph)).families:
            assert family_fault(fam) is None, graph


def test_cli_csg_builds_the_link_graph_once(monkeypatch, capsys):
    calls = []
    original = seams.try_ear_link

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(seams, "try_ear_link", counted)
    assert cli.main(["csg", "petersen"]) == 0
    assert "verdict: holds=True" in capsys.readouterr().out
    assert len(calls) == 90  # one call per link of the 30 0-mod-3 cycles


def test_cli_csg_prunes_each_family_once(capsys):
    # counted by code object, so a call through any module's binding counts
    code = seams.prune_nonexclusive.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert cli.main(["csg", "petersen"]) == 0
    finally:
        sys.setprofile(previous)
    out = capsys.readouterr().out
    assert "collections: 1\n" in out and "verdict: holds=True" in out
    assert len(calls) == 1  # printing and the family audit share the groups


def test_cli_csg_budget_bounds_the_cycle_listing():
    # unbounded, listing and linking the cycles of this graph takes over
    # 30 s; in a child process the test fails on time instead of hanging
    line = encode_graph6(random_cubic(24, 1))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "domlab.cli", "csg", line, "--budget-ms", "100"],
                          capture_output=True, text=True, timeout=5, env=env)
    assert done.returncode == 0
    # the listing alone takes about 40 ms on a 2-vCPU VM, so the budget
    # runs out while linking; a slower machine may stop in the listing
    assert done.stdout in {f"verdict: timeout after 100 ms ({phase})\n"
                           for phase in ("link graph", "cycle listing")}


def test_cli_csg_reports_its_timeout(capsys):
    # the listing of this graph's cycles takes about 40 ms on a 2-vCPU VM
    assert cli.main(["csg", encode_graph6(random_cubic(24, 1)), "--budget-ms", "1"]) == 0
    assert capsys.readouterr().out == "verdict: timeout after 1 ms (cycle listing)\n"


def test_cli_csg_budget_stops_inside_the_cycle_listing():
    # this graph has 61,478 0-mod-3 cycles, which take about 4.5 s to list
    # on a 2-vCPU VM, so a 100 ms budget runs out in the listing's own
    # deadline reads
    line = encode_graph6(random_cubic(36, 1))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "domlab.cli", "csg", line, "--budget-ms", "100"],
                          capture_output=True, text=True, timeout=5, env=env)
    assert done.returncode == 0
    assert done.stdout == "verdict: timeout after 100 ms (cycle listing)\n"


@pytest.mark.parametrize("graph", ["k4", "prism", "petersen", "theta(2,2,2)"])
def test_cli_csg_prints_each_group_with_its_first_mark_set(capsys, graph):
    # the mark search has no cap, so every group shows a set or "none",
    # the first set of the backtracking search
    assert cli.main(["csg", graph]) == 0
    shown = [line.split("assignment=")[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  exclusive ")]
    expected = []
    for fam in Facts(cli._resolve_graph(graph)).families:
        for group in prune_nonexclusive(fam):
            marks = spaced_assignments_by_search(group)
            expected.append("{" + ",".join(map(str, sorted(marks[0]))) + "}" if marks else "none")
    assert shown == expected and expected


def test_cli_sweep_rejects_an_unknown_check(capsys):
    assert cli.main(["sweep", "--corpus", "gnp n=4 p=0.5 count=1", "--checks", "nope"]) == 2
    captured = capsys.readouterr()
    assert "'nope'" in captured.err and captured.out == ""


def test_cli_sweep_rejects_a_repeated_check(capsys):
    with pytest.raises(ValueError, match="'third_bound' named more than once"):
        run_sweep(FIXTURE_LINES, checks=("third_bound", "claw_free_equal", "third_bound"))
    argv = ["sweep", "--corpus", "random-cubic n=4 count=2", "--checks", "third_bound,third_bound"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "'third_bound'" in captured.err and captured.out == ""
    assert "cache_misses" not in captured.err


@pytest.mark.parametrize("spec, named", [
    ("", "empty generator spec"),
    ("random-cubic count=2", "n="),
    ("gnp n=5 count=2", "p="),
    ("random-cubic n=6 sed=3", "'sed'"),
    ("random-cubic n=8 count=-2", "count="),
    ("gnp n=5 p=1.5 count=2", "p="),
    ("gnp n=5 p=-0.5 count=2", "p="),
    ("gnp n=5 p=nan count=2", "p="),
    ("gnp n=5 p=half count=2", "p="),
    ("random-cubic n=x count=2", "n="),
    ("random-cubic n=6 count=two", "count="),
    ("random-cubic n=6 seed=1.5", "seed="),
])
def test_generator_spec_errors_are_usage_errors(capsys, spec, named):
    with pytest.raises(ValueError, match=named):
        generate_corpus(spec)
    assert cli.main(["gen", spec]) == 2
    assert cli.main(["sweep", "--corpus", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count(named) == 2


@pytest.mark.parametrize("flag, role, where", [
    ("--out", "output", "missing"),
    ("--summary", "summary", "missing"),
    ("--cache", "cache", "missing"),
    ("--cache", "cache", "dir"),
    ("--corpus", "corpus", "dir"),
])
def test_cli_sweep_rejects_a_bad_path_before_computing(monkeypatch, capsys, tmp_path, flag, role, where):
    calls = []
    monkeypatch.setattr(sweep, "compute_pieces", lambda *payload: calls.append(payload))
    path = str(tmp_path / "absent" / "file" if where == "missing" else tmp_path)
    # a later --corpus overrides the first
    argv = ["sweep", "--corpus", "random-cubic n=8 count=3", flag, path]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot open {role} {path}: ")
    assert captured.err.count("\n") == 1
    assert calls == []


def test_cli_sweep_misspelt_check_keeps_the_output_file(capsys, tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("kept\n")
    argv = ["sweep", "--corpus", "random-cubic n=8 count=2", "--checks", "nope", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "'nope'" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("graph", ["k4", "prism", "petersen"])
def test_family_verdict_keeps_truncated_false(graph):
    # the key stays in records, always false, until the next schema change
    verdict = CHECKS["family_dset"].evaluate(Facts(named_graph(graph)))
    assert verdict.info["truncated"] is False
    line = encode_graph6(named_graph(graph))
    piece = run_sweep([line], checks=("family_dset",), jobs=1).records[0]["checks"]["family_dset"]
    assert piece == verdict.to_json()


def exit_code_and_stderr(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    return stop.value.code, capsys.readouterr().err


def test_cli_rejects_jobs_below_one(capsys):
    for value, error in (("0", "must be at least 1, got 0"), ("-2", "must be at least 1, got -2"),
                         ("x", "invalid int value: 'x'")):
        code, err = exit_code_and_stderr(
            ["sweep", "--corpus", "gnp n=4 p=0.5 count=1", "--jobs", value], capsys
        )
        assert code == 2
        assert "usage:" in err and f"argument --jobs: {error}" in err


def test_cli_rejects_budget_below_one(capsys):
    commands = (["gamma", "k4"], ["idom", "k4"], ["csg", "k4"],
                ["sweep", "--corpus", "gnp n=4 p=0.5 count=1"], ["verify"])
    for command in commands:
        for value in ("0", "-1"):
            code, err = exit_code_and_stderr(command + ["--budget-ms", value], capsys)
            assert code == 2, command
            assert "usage:" in err and "argument --budget-ms: must be at least 1" in err


def test_cli_sweep_jobs_deterministic(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(FIXTURE_LINES) + "\n", encoding="ascii")
    out1 = tmp_path / "a.jsonl"
    out8 = tmp_path / "b.jsonl"
    assert cli.main(["sweep", "--corpus", str(corpus), "--out", str(out1),
                     "--summary", str(tmp_path / "s1.csv")]) == 0
    assert cli.main(["sweep", "--corpus", str(corpus), "--jobs", "8",
                     "--out", str(out8), "--summary", str(tmp_path / "s8.csv")]) == 0
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize("jobs", [2, 3, 5])
def test_jobs_keep_records_byte_identical(tmp_path, jobs):
    lines = generate_corpus("random-cubic n=8 count=4 seed=3") + FIXTURE_LINES
    want = [record_to_jsonl(r) for r in run_sweep(lines).records]
    # more jobs than graphs
    few = run_sweep(lines[:2], jobs=jobs)
    assert [record_to_jsonl(r) for r in few.records] == want[:2]
    # a half-warm cache: only the odd-numbered graphs are computed
    cache = str(tmp_path / "cache.jsonl")
    run_sweep(lines[::2], cache_path=cache)
    warm = run_sweep(lines, jobs=jobs, cache_path=cache)
    assert warm.summary["cache_misses"] == len(lines[1::2]) * (1 + len(DEFAULT_CHECKS))
    assert [record_to_jsonl(r) for r in warm.records] == want


def test_one_job_never_loads_multiprocessing(tmp_path):
    # in a fresh interpreter: pytest and this module import multiprocessing
    script = ("import sys\n"
              "from domlab import cli\n"
              f"argv = ['sweep', '--corpus', 'random-cubic n=8 count=3', '--jobs', '1', "
              f"'--cache', {str(tmp_path / 'cache.jsonl')!r}, '--out', {os.devnull!r}]\n"
              "assert cli.main(argv) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    assert "graphs=3 cache_hits=0 cache_misses=30" in done.stderr


def test_jobs_count_the_sweep_process(monkeypatch):
    started = []
    original = multiprocessing.Process.start

    def counted(proc):
        started.append(proc)
        original(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", counted)
    run_sweep(FIXTURE_LINES, checks=("third_bound",), jobs=1)
    assert started == []
    run_sweep(FIXTURE_LINES, checks=("third_bound",), jobs=8)
    assert len(started) == 2


class HelperFailure(Exception):
    pass


def in_helper_once(flag: Path) -> bool:
    """True in a helper process, after it has left `flag` for the sweep
    process; there it waits until some helper has taken a graph, so that
    the sweep process cannot compute every graph alone."""
    if multiprocessing.parent_process() is not None:
        flag.touch()
        return True
    limit = time.monotonic() + 10
    while not flag.exists() and time.monotonic() < limit:
        time.sleep(0.005)
    return False


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="helpers see the monkeypatched check only when forked")
def test_helper_exception_surfaces_with_its_type(tmp_path, monkeypatch):
    real = CHECKS["third_bound"]

    def evaluate(facts):
        if in_helper_once(tmp_path / "flag"):
            raise HelperFailure(facts.g.n)
        return real.evaluate(facts)

    monkeypatch.setitem(CHECKS, "third_bound", Check(real.gate, evaluate))
    lines = generate_corpus("random-cubic n=8 count=4 seed=3")
    with pytest.raises(HelperFailure) as raised:
        run_sweep(lines, checks=("third_bound",), jobs=2)
    # the helper's own traceback comes along as the cause
    assert "in evaluate" in str(raised.value.__cause__)


HELPER_DIES = """
import multiprocessing, os, sys, time
from pathlib import Path
from domlab import sweep
from domlab.cli import generate_corpus

flag = Path(sys.argv[1])
real = sweep.compute_pieces

def dying(*payload):
    if multiprocessing.parent_process() is not None:
        flag.touch()
        os._exit(3)
    while not flag.exists():
        time.sleep(0.005)
    return real(*payload)

sweep.compute_pieces = dying
if __name__ == "__main__":
    try:
        sweep.run_sweep(generate_corpus("random-cubic n=8 count=4 seed=3"), jobs=2)
    except RuntimeError as exc:
        print(exc)
"""


def test_helper_death_raises_instead_of_hanging(tmp_path):
    script = tmp_path / "dies.py"
    script.write_text(HELPER_DIES, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, str(script), str(tmp_path / "flag")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "sweep helper 0 died\n"


def test_cli_sweep_csv_format(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(FIXTURE_LINES[0] + "\n", encoding="ascii")
    assert cli.main(["sweep", "--corpus", str(corpus), "--checks", "third_bound",
                     "--format", "csv", "--summary", str(tmp_path / "s.csv")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("third_bound")
    assert out.splitlines()[1].endswith("holds")


def test_cli_gen(capsys):
    assert cli.main(["gen", "gnp n=6 p=0.5 count=2 seed=1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2


def test_strict_flags_violations(tmp_path):
    # the wheel's hub dominates alone, but no spaced family candidate can,
    # so family_dset records an honest violation
    corpus = tmp_path / "wheel.g6"
    corpus.write_text(encode_graph6(wheel5()) + "\n", encoding="ascii")
    args = ["sweep", "--corpus", str(corpus), "--checks", "family_dset",
            "--summary", str(tmp_path / "s.csv"), "--out", str(tmp_path / "o.jsonl")]
    assert cli.main(args) == 0
    assert cli.main(args + ["--strict"]) == 1
    record = json.loads((tmp_path / "o.jsonl").read_text().strip())
    piece = record["checks"]["family_dset"]
    assert piece["holds"] is False and piece["witness"]["candidate_size"] == 2


def test_strict_passes_clean_corpus(tmp_path):
    corpus = tmp_path / "ok.g6"
    corpus.write_text(FIXTURE_LINES[0] + "\n", encoding="ascii")
    assert cli.main(["sweep", "--corpus", str(corpus), "--strict",
                     "--summary", str(tmp_path / "s.csv"),
                     "--out", str(tmp_path / "o.jsonl")]) == 0


def test_budget_produces_timeout_records(tmp_path):
    from domlab import random_cubic

    # gamma of this graph ran past a 12 s deadline (2-CPU x86-64, Python 3.11)
    line = encode_graph6(random_cubic(100, seed=1))
    cache = str(tmp_path / "cache.jsonl")
    result = run_sweep([line], checks=("third_bound",), budget_ms=200, cache_path=cache)
    rec = result.records[0]
    assert rec["gamma"] is None and rec["idom"] is None
    assert rec["checks"]["third_bound"] == {"timeout": True, "phase": "domination solve"}
    assert result.summary["checks"]["third_bound"]["timeout"] == 1
    # timeouts are budget artifacts and must not poison the cache
    rerun = run_sweep([line], checks=("third_bound",), budget_ms=200, cache_path=cache)
    assert rerun.summary["cache_hits"] == 0


def test_timeout_reaches_only_checks_that_read_gamma_or_idom(tmp_path):
    from domlab import random_cubic

    # gamma of this graph ran past a 12 s deadline (2-CPU x86-64, Python 3.11)
    line = encode_graph6(random_cubic(100, seed=1))
    cache = tmp_path / "cache.jsonl"
    checks = ("claw_free_equal", "third_bound")
    result = run_sweep([line], checks=checks, budget_ms=200, cache_path=str(cache))
    rec = result.records[0]
    assert rec["gamma"] is None and rec["idom"] is None
    # a claw settles claw_free_equal without gamma or i
    claw = rec["checks"]["claw_free_equal"]
    assert claw["holds"] and claw["vacuous"] and "claw" in claw["info"]
    assert rec["checks"]["third_bound"] == {"timeout": True, "phase": "domination solve"}
    cached = [json.loads(raw) for raw in cache.read_text().splitlines()]
    assert [list(row["r"]) for row in cached] == [["claw_free_equal"]]
    rerun = run_sweep([line], checks=checks, budget_ms=200, cache_path=str(cache))
    assert rerun.summary["cache_hits"] == 1
    assert rerun.records[0]["checks"]["claw_free_equal"] == claw


def test_budget_bounds_default_checks_on_a_large_graph():
    from domlab import random_cubic

    # listing every cycle of this graph would not finish, and gamma ran past
    # a 12 s deadline (2-CPU x86-64, Python 3.11); the budget stops both
    line = encode_graph6(random_cubic(100, seed=1))
    t0 = time.monotonic()
    rec = run_sweep([line], checks=DEFAULT_CHECKS, budget_ms=200).records[0]
    assert time.monotonic() - t0 < 30
    assert rec["gamma"] is None and rec["connectivity"] == 3
    # family_dset reads gamma before the cycle listing that timed out
    phases = {"third_bound": "domination solve", "excess_gamma_independent": "domination solve",
              "mod3_cycle_exists": "cycle listing", "family_dset": "domination solve"}
    for name, phase in phases.items():
        assert rec["checks"][name] == {"timeout": True, "phase": phase}, name
    for name in ("tight_pair_separation", "edge_removal", "detach_transform"):
        assert rec["checks"][name] == {"skipped": "n > 24"}, name
    assert rec["checks"]["claw_free_equal"]["vacuous"]


def test_piece_status_words():
    assert piece_status({"skipped": "connectivity < 3"}) == "skipped"
    assert piece_status({"timeout": True}) == "timeout"
    verdict = {"holds": True, "vacuous": True, "witness": None, "info": {}}
    assert piece_status(verdict) == "vacuous"
    assert piece_status({**verdict, "vacuous": False}) == "holds"
    assert piece_status({**verdict, "vacuous": False, "holds": False}) == "violation"


def test_generator_spec_corpus_sweep(tmp_path, capsys):
    assert cli.main(["sweep", "--corpus", "random-cubic n=10 count=50 seed=1",
                     "--checks", "third_bound", "--strict",
                     "--out", str(tmp_path / "o.jsonl"),
                     "--summary", str(tmp_path / "s.csv")]) == 0
    records = [json.loads(l) for l in (tmp_path / "o.jsonl").read_text().splitlines()]
    assert len(records) == 50
    assert all(r["checks"]["third_bound"]["holds"] for r in records)
    summary = (tmp_path / "s.csv").read_text()
    assert "third_bound,50,0,0,0,0" in summary


def test_cli_verify_runs_green(verify_run):
    assert verify_run.returncode == 0
    out = verify_run.stdout
    assert out.count("PASS") >= 13
    assert "FAIL" not in out
    result_line = [l for l in out.splitlines() if l.startswith("RESULT ")][0]
    block = json.loads(result_line[len("RESULT "):])
    assert block["ok"] is True and len(block["criteria"]) == 14


def test_cli_verify_reports_failure(monkeypatch, capsys):
    from domlab import acceptance

    def broken(budget_ms=60000):
        return [acceptance.CriterionResult(1, "stub", False, False, "boom")]

    monkeypatch.setattr(acceptance, "run_all", broken)
    assert cli.main(["verify"]) == 1
    assert "FAIL  1 stub: boom" in capsys.readouterr().out


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sweep_golden.jsonl")


def _golden_runs() -> list[tuple[tuple[str, ...], list[str]]]:
    # consecutive records sharing one check set were written by one sweep
    runs: list[tuple[tuple[str, ...], list[str]]] = []
    with open(GOLDEN, encoding="utf-8") as fh:
        for raw in fh:
            rec = json.loads(raw)
            checks = tuple(rec["checks"])
            if not runs or runs[-1][0] != checks:
                runs.append((checks, []))
            runs[-1][1].append(rec["graph6"])
    return runs


@pytest.mark.parametrize("jobs", [1, 2, 3, 5])
def test_sweep_reproduces_golden_records(tmp_path, jobs):
    """Records frozen from an earlier release must come back byte for byte.

    The file holds fixtures, G(n, p) graphs, graphs below connectivity 3 or
    above degree 3, family_dset gaps (octahedron, wheel) and a cubic n=26
    graph swept with the enumeration checks only, reaching their n > 24 gate.
    """
    produced = []
    for i, (checks, lines) in enumerate(_golden_runs()):
        corpus = tmp_path / f"corpus{i}.g6"
        corpus.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        out = tmp_path / f"out{i}.jsonl"
        assert cli.main(["sweep", "--corpus", str(corpus), "--checks", ",".join(checks),
                         "--jobs", str(jobs), "--out", str(out),
                         "--summary", str(tmp_path / f"s{i}.csv")]) == 0
        produced.append(out.read_bytes())
    with open(GOLDEN, "rb") as fh:
        assert b"".join(produced) == fh.read()
