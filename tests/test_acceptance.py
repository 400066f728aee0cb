"""Acceptance criteria, one test per entry of `acceptance.CRITERIA`.

Each test runs its criterion the way `domlab verify` does and prints its
report line, so a bare pytest run doubles as the acceptance report.  The
tests are generated from the registry: entry k, whose body is the
function `f`, becomes `test_criterion_<k, two digits>_<f.__name__>`.
"""

import pytest

from domlab import acceptance, cli
from domlab.checks import CHECKS, Check
from domlab.reduction import AuditVerdict


def _criterion_test(cid: int, name: str):
    def test():
        result = acceptance.run_criterion(cid)
        print(result.line())
        if result.skipped:
            pytest.skip(result.detail)
        assert result.ok

    test.__name__ = test.__qualname__ = name
    return test


for _cid, (_body, _) in enumerate(acceptance.CRITERIA.values(), 1):
    _name = f"test_criterion_{_cid:02d}_{_body.__name__}"
    globals()[_name] = _criterion_test(_cid, _name)


def test_verify_output_identical_across_runs(verify_run, capsys):
    first = verify_run.stdout
    cli.main(["verify"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_writes_nothing_to_stderr(verify_run):
    assert verify_run.returncode == 0
    assert verify_run.stderr == ""


def test_criterion_over_its_budget_fails(monkeypatch):
    class Clock:
        now = 0.0

        def monotonic(self):
            self.now += 100.0
            return self.now

    monkeypatch.setattr(acceptance, "time", Clock())
    result = acceptance.run_criterion(2)
    assert not result.ok and not result.skipped
    assert result.line() == ("FAIL  2 cycle-domination-law: n=3..24 all equal ceil(n/3) "
                             "but took 100.0s, over the 5s budget")
    assert "within" not in result.detail


def test_audit_criterion_reports_the_violation(monkeypatch):
    # every graph violates, so the claw-free corpus's first graph is named
    witness = {"gamma": 2, "idom": 3}
    monkeypatch.setitem(CHECKS, "claw_free_equal",
                        Check(CHECKS["claw_free_equal"].gate, lambda facts: AuditVerdict(False, witness=witness)))
    g = acceptance.filtered_corpus("claw_free")[0]
    assert acceptance.claw_free_audit() == (
        False, f'violation on n={g.n} m={g.m}: {{"gamma": 2, "idom": 3}}')


def test_criterion_14_paths(tmp_path, monkeypatch):
    from domlab import encode_graph6, named_graph, random_cubic

    # gamma of this graph ran past a 12 s deadline (2-CPU x86-64, Python 3.11)
    big = tmp_path / "big.g6"
    big.write_text(encode_graph6(random_cubic(100, seed=1)) + "\n", encoding="ascii")
    monkeypatch.setenv(acceptance.COUNTEREXAMPLE_ENV, str(big))
    ok, detail = acceptance.external_counterexample(budget_ms=300)
    assert ok and "timeout" in detail

    small = tmp_path / "small.g6"
    small.write_text(encode_graph6(named_graph("petersen")) + "\n", encoding="ascii")
    monkeypatch.setenv(acceptance.COUNTEREXAMPLE_ENV, str(small))
    ok, detail = acceptance.external_counterexample(budget_ms=5000)
    assert ok and "gamma=3" in detail

    monkeypatch.setenv(acceptance.COUNTEREXAMPLE_ENV, str(tmp_path / "missing.g6"))
    assert acceptance.external_counterexample()[0] is False

    monkeypatch.setenv(acceptance.COUNTEREXAMPLE_ENV, str(tmp_path))
    assert acceptance.external_counterexample() == (False, f"{tmp_path} is not a file")

    for name, content in (("bad.g6", b"!!\n"), ("binary.g6", b"\xff\xfe\n")):
        bad = tmp_path / name
        bad.write_bytes(content)
        monkeypatch.setenv(acceptance.COUNTEREXAMPLE_ENV, str(bad))
        ok, detail = acceptance.external_counterexample()
        assert ok is False and detail.startswith(f"{bad}: ")
