"""The benchmark's traced layers must name functions that exist.

`perfbench/spans.py` wraps each `SPAN_LAYERS` and `COUNT_LAYERS` target by
its dotted path under `domlab`; a renamed or deleted function would break
the traced benchmark run, so the suite resolves every target first.  The
file is only read, never imported as a module.
"""

import importlib
import os
import runpy

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_every_traced_layer_resolves_under_domlab():
    spans = runpy.run_path(SPANS)
    targets = [target for target, _, _ in spans["SPAN_LAYERS"]] + list(spans["COUNT_LAYERS"])
    assert targets
    for target in targets:
        module, *path = target.split(".")
        owner = importlib.import_module(f"domlab.{module}")
        for part in path:
            assert hasattr(owner, part), target
            owner = getattr(owner, part)
        assert callable(owner), target
