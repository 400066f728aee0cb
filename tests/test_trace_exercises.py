"""The traced benchmark's family workload must see every layer it lists.

`perfbench/workloads.py` names, per workload, the layers a traced run must
see called (`exercises`); a traced run that misses one is reported as
incorrect.  This test sweeps the first corpus file of `family-n10` seed 1
with every check, at `--jobs 1` and with a fresh cache, under
`perfbench/spans.py`'s `Tracer`, so a change that stops calling one of
those layers fails here and not only in the traced benchmark.  Both files
are only read and run; nothing under `perfbench/` is written.
"""

import runpy
import sys
from pathlib import Path

import domlab.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_family_workload_calls_every_exercised_layer(tmp_path, monkeypatch):
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

    tracer = spans["Tracer"]()
    try:
        tracer.install()
        assert domlab.cli.main(argv) == 0
    finally:
        tracer.uninstall()

    calls = {name: row["calls"] for name, row in tracer.layer_totals().items()}
    calls.update({t: tracer.counts[f"{t}.calls"] for t in spans["COUNT_LAYERS"]})
    assert [name for name in w.exercises if calls[name] < 1] == []
    # one detach audit, and one pool listing, per minimum dominating set
    dsets = tracer.counts["domination.enumerate_min_dsets.dsets"]
    assert calls["reduction.check_detach_fact"] == calls["reduction.detachable_vertices"] == dsets
