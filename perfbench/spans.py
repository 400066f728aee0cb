"""Outside-in spans around the program's layers, recorded from the benchmark.

`Tracer.install` wraps each listed function and rebinds every attribute of
every loaded `domlab.*` module that holds the original function object:
`sweep`, `seams` and `reduction` import functions by name, so patching only
the defining module would let those calls bypass the span.  Spans live in
memory (parallel lists, one entry per call) until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# Span for a graph's audit; every span under it carries its index as `graph`.
GRAPH_ROOT = "sweep.compute_pieces"


def _dsets(result) -> int:
    return len(result.dsets)


def _links(result) -> int:
    return result is not None


# (module.attribute path, result-size name, result-size function).  Each
# layer gets a self time and a call count; a method is named by its class.
SPAN_LAYERS = (
    ("cli.main", None, None),
    ("sweep.compute_pieces", None, None),
    ("sweep.VerdictCache.__init__", None, None),
    ("sweep.record_to_jsonl", None, None),
    ("graph6.parse_graph6", None, None),
    ("graphs.vertex_connectivity", None, None),
    ("graphs.delete_edges", None, None),
    ("domination.gamma_exact", None, None),
    ("domination.idom_exact", None, None),
    ("domination.enumerate_min_dsets", "dsets", _dsets),
    ("reduction.check_detach_fact", None, None),
    ("reduction.detachable_vertices", None, None),
    ("reduction.removable_edges", None, None),
    ("cycles.all_simple_cycles", "cycles", len),
    ("cycles.mod3_cycles", None, None),
    ("seams.seamless_families", None, None),
    ("seams.prune_nonexclusive", None, None),
    ("seams.spaced_assignments", None, None),
    ("seams.try_ear_link", "links", _links),
)
# Called too often for a span to be cheap next to its body: count only.
COUNT_LAYERS = ("domination.is_dominating",)


def layer_name(target: str) -> str:
    return target.removesuffix(".__init__")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.graphs: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for target, size_name, size_fn in SPAN_LAYERS:
            self._replace(target, functools.partial(self._span_wrapper, layer_name(target), size_name, size_fn))
        for target in COUNT_LAYERS:
            self._replace(target, functools.partial(self._count_wrapper, target))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, target: str, make) -> None:
        module, *outer, attr = target.split(".")
        owner = importlib.import_module(f"domlab.{module}")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(original)
        if outer:  # a method: its class is the one place to patch
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != "domlab" and not name.startswith("domlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name, size_name, size_fn, fn):
        names, parents, graphs = self.names, self.parents, self.graphs
        starts, ends, stack, counts = self.starts, self.ends, self._stack, self.counts
        is_root = name == GRAPH_ROOT
        size_key = f"{name}.{size_name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(name)
            parents.append(parent)
            graphs.append(idx if is_root else (graphs[parent] if parent >= 0 else -1))
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if size_fn is not None:
                counts[size_key] += size_fn(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: total self time (span minus its direct children) and calls."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {layer_name(t): {"self_s": 0.0, "calls": 0} for t, _, _ in SPAN_LAYERS}
        for i, name in enumerate(self.names):
            row = out[name]
            row["self_s"] += self.ends[i] - self.starts[i] - child[i]
            row["calls"] += 1
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent, graph, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tgraph\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.graphs[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")
