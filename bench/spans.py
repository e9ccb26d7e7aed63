"""Outside-in span tracing for the catalog benchmark.

The benchmark does not change the program: it wraps the public entry points
listed in SPANS from the outside, runs a pass, and restores the originals.
A function is wrapped once and the wrapper is rebound in every ``chernlab.*``
module namespace that holds the original, because ``from .operators import
compose`` copies the binding into ``cocycles``, ``tracemean`` and
``experiments``.  Staticmethods and methods are wrapped at their class.

Per-element helpers (``OperatorModel.phase``, ``series.cross``,
``SampledMetricSpace.arc``, ``FourierSeries.key`` and the ``QGauss``
arithmetic) stay out of the span set: a span costs about a microsecond, and
``OperatorModel.phase`` alone is called over half a million times a pass.
``QGauss`` arithmetic is counted instead of timed.

Import this module only after ``chernlab`` is importable.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from chernlab.operators import SparseOperator
from chernlab.scalars import QGauss

# (layer, attribute of chernlab.<layer>, the workload that must call it)
SPANS = (
    ("operators", "commutator", "commutator-spectrum"),
    ("operators", "multiplication_operator", "operator-diagonals"),
    ("operators", "compose", "operator-diagonals"),
    ("operators", "product_diagonal", "operator-diagonals"),
    ("operators", "singular_values", "commutator-spectrum"),
    ("operators", "SparseOperator.diagonal_phase", "operator-diagonals"),
    ("operators", "SparseOperator.from_dict", "operator-diagonals"),
    ("operators", "SparseOperator.to_float", "operator-diagonals"),
    ("operators", "SparseOperator.to_csr", "operator-diagonals"),
    ("operators", "SparseOperator.from_csr", "operator-diagonals"),
    ("tracemean", "diagonal_of", "small-catalog"),
    ("tracemean", "log_mean", "small-catalog"),
    ("tracemean", "probe", "small-catalog"),
    ("cocycles", "eval_c_omega_wedge", "operator-diagonals"),
    ("cocycles", "fast_path_partial_sums", "operator-diagonals"),
    ("cocycles", "szego_pair_diagonal", "small-catalog"),
    ("cocycles", "torus_diagonal_operator", "operator-diagonals"),
    ("cocycles", "check_hochschild_cocycle", "small-catalog"),
    ("cocycles", "check_cyclicity", "small-catalog"),
    ("metric", "estimate_holder_seminorm", "holder-grid"),
    ("metric", "diagonal_decay_experiment", "holder-grid"),
    ("series", "multiply", "small-catalog"),
    ("chains", "boundary_b", "small-catalog"),
)

# scalars has no span: its entry points are per-element, so its time is
# part of its callers' self time and its work is the qgauss_ops count
LAYERS = ("experiments", "series", "operators", "tracemean", "cocycles",
          "chains", "metric")

QGAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "conjugate", "to_complex")

COUNTS = ("operators.nnz_built", "operators.exact_entries_built",
          "operators.singular_values.dim", "tracemean.diagonal_entries",
          "scalars.qgauss_ops")


def _count_returned_operator(tracer, caller_layer, args, result):
    # only operators handed to another layer: compose() returns what
    # from_dict() built, and counting both would count one operator twice
    if caller_layer != "operators" and isinstance(result, SparseOperator):
        nnz = result.nnz()
        tracer.counts["operators.nnz_built"] += nnz
        if result.exact:
            tracer.counts["operators.exact_entries_built"] += nnz


def _count_singular_values(tracer, caller_layer, args, result):
    _count_returned_operator(tracer, caller_layer, args, result)
    tracer.counts["operators.singular_values.dim"] += args[0].dim()
    tracer.labels["operators.singular_values.provenance"].add(result.provenance)


def _count_built_diagonal(tracer, caller_layer, args, result):
    tracer.counts["tracemean.diagonal_entries"] += len(result.values)


def _count_summed_diagonal(tracer, caller_layer, args, result):
    tracer.counts["tracemean.diagonal_entries"] += len(args[0].values)


HOOKS = {
    "operators.singular_values": _count_singular_values,
    "tracemean.diagonal_of": _count_built_diagonal,
    "tracemean.log_mean": _count_summed_diagonal,
}


class Tracer:
    """Spans with self time, call counts and work counts for one pass.

    A span's self time is its duration minus the time its child spans
    cover; a layer's self time is the sum over its spans.  A function's
    inclusive time counts only its outermost activation.
    """

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.labels = defaultdict(set)
        self._stack = []
        self._open = defaultdict(int)
        self._undo = []

    def reset(self):
        for table in (self.inclusive, self.calls, self.self_s, self.counts,
                      self.labels, self._open):
            table.clear()
        self._stack.clear()

    def _enter(self, name, layer):
        caller = self._stack[-1][1] if self._stack else None
        frame = [name, layer, caller, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        self.calls[name] += 1
        return frame

    def _exit(self, frame):
        name, layer, _, start, child = frame
        duration = time.perf_counter() - start
        self._stack.pop()
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += duration
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][4] += duration

    @contextmanager
    def span(self, name, layer):
        frame = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(frame)

    def _traced(self, fn, name, layer, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if hook is not None:
                hook(self, frame[2], args, result)
            return result
        return traced

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key) if inspect.ismodule(owner)
                           else inspect.getattr_static(owner, key)))
        setattr(owner, key, value)

    def install(self):
        """Wrap every listed entry point and the QGauss operations."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chernlab" or n.startswith("chernlab.")]
        for layer, path, _ in SPANS:
            name = f"{layer}.{path}"
            hook = HOOKS.get(name)
            if hook is None and layer == "operators":
                hook = _count_returned_operator
            owner = importlib.import_module(f"chernlab.{layer}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._traced(raw.__func__, name, layer, hook))
                else:
                    new = self._traced(raw, name, layer, hook)
                self._replace(cls, attr, new)
                continue
            fn = getattr(owner, path)
            new = self._traced(fn, name, layer, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, new)
        for attr in QGAUSS_OPS:
            self._replace(QGauss, attr,
                          self._counted(QGauss.__dict__[attr], "scalars.qgauss_ops"))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def metrics(self, experiments) -> dict:
        """Per-layer metrics of the pass, by the names BENCHMARK.json uses."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for layer, path, _ in SPANS:
            name = f"{layer}.{path}"
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.calls"] = self.calls[name]
        for experiment in experiments:
            out[f"experiments.{experiment}.s"] = self.inclusive[f"experiments.{experiment}"]
        for key in COUNTS:
            out[key] = self.counts[key]
        return out
