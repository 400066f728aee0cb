"""The traced benchmark's family workload must see every layer it lists.

`perfbench/workloads.py` names, per workload, the layers a traced run must
see called (`exercises`); a traced run that misses one is reported as
incorrect.  This test sweeps the first corpus file of `family-n10` seed 1
with every check, at `--jobs 1` and with a fresh cache, under
`perfbench/spans.py`'s `Tracer`, so a change that stops calling one of
those layers fails here and not only in the traced benchmark.  The same
traced sweep pins the surgery audits' work counts, which noise cannot
move.  Both files are only read and run; nothing under `perfbench/` is
written.
"""

import runpy
import sys
from pathlib import Path

import domlab.cli
from domlab.graphs import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_family_chunk(tmp_path, monkeypatch):
    """Sweep chunk 0 of `family-n10` seed 1 under the `Tracer`; returns the
    workload, the tracer, per-layer calls and the `Graph.__post_init__`
    runs, each of which validates rows and builds one N[v] mask table."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    finally:
        sys.modules.pop("corpus", None)  # imported by workloads.py
    spans = runpy.run_path(str(PERFBENCH / "spans.py"))
    w = workloads["WORKLOADS"]["family-n10"]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in workloads["graph6_lines"](w.generate(1)[0])))
    argv = ["sweep", "--corpus", str(corpus), "--checks", w.checks, "--jobs", "1",
            "--out", str(tmp_path / "out.jsonl"), "--summary", str(tmp_path / "summary.csv"),
            "--cache", str(tmp_path / "cache.jsonl")]

    tables = []
    original = Graph.__post_init__

    def counted(g):
        original(g)
        tables.append(g.n)

    monkeypatch.setattr(Graph, "__post_init__", counted)

    tracer = spans["Tracer"]()
    try:
        tracer.install()
        assert domlab.cli.main(argv) == 0
    finally:
        tracer.uninstall()

    calls = {name: row["calls"] for name, row in tracer.layer_totals().items()}
    calls.update({t: tracer.counts[f"{t}.calls"] for t in spans["COUNT_LAYERS"]})
    return w, tracer, calls, len(tables)


def test_family_workload_calls_every_exercised_layer(tmp_path, monkeypatch):
    w, tracer, calls, _ = traced_family_chunk(tmp_path, monkeypatch)
    assert [name for name in w.exercises if calls[name] < 1] == []
    # one detach audit, and one pool listing, per minimum dominating set
    dsets = tracer.counts["domination.enumerate_min_dsets.dsets"]
    assert calls["reduction.check_detach_fact"] == calls["reduction.detachable_vertices"] == dsets


def test_family_workload_surgery_work_is_pinned(tmp_path, monkeypatch):
    # Deterministic counts on the chunk's 10 cubic graphs.  A change that
    # lowers a count lowers its pin here; one that raises it says why.
    _, tracer, calls, tables = traced_family_chunk(tmp_path, monkeypatch)
    # one g - e per edge that some set of the graph can remove
    assert calls["graphs.delete_edges"] == 150
    assert calls["domination.is_dominating"] == 1_357
    assert tracer.counts["domination.enumerate_min_dsets.dsets"] == 141
    assert calls["reduction.check_detach_fact"] == 141
    assert calls["reduction.detachable_vertices"] == 141
    assert calls["reduction.removable_edges"] == 141
    # only the 10 parsed graphs build and validate an N[v] table: each
    # g - e patches its parent's two endpoint masks, and no solver or
    # audit builds another
    assert tables == 10
