"""Spans around calls into otfuse's layers, recorded from outside the program.

Each public function a layer exports is wrapped under the name its caller
binds (``otfuse.fusion.solve_exact`` is the binding ``align`` calls, not
``otfuse.transport.solve_exact``), so the program's own code is unchanged.
A span is named ``<defining module>.<function>`` and records its start, end,
parent span, operation id and whether the call raised.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (module whose binding is replaced, attribute, span name)
TARGETS = (
    ("otfuse.cli", "load_checkpoint", "serialize.load_checkpoint"),
    ("otfuse.cli", "save_checkpoint", "serialize.save_checkpoint"),
    ("otfuse.cli", "align", "fusion.align"),
    ("otfuse.cli", "run_experiment", "experiment.run_experiment"),
    ("otfuse.experiment", "run_seed", "experiment.run_seed"),
    ("otfuse.experiment", "format_report_text", "experiment.format_report_text"),
    ("otfuse.experiment", "format_report_csv", "experiment.format_report_csv"),
    ("otfuse.experiment", "gen_synthetic", "data.gen_synthetic"),
    ("otfuse.experiment", "concat_datasets", "data.concat_datasets"),
    ("otfuse.experiment", "train", "nets.train"),
    ("otfuse.experiment", "finetune", "nets.finetune"),
    ("otfuse.experiment", "accuracy", "nets.accuracy"),
    ("otfuse.experiment", "loss", "nets.loss"),
    ("otfuse.experiment", "align", "fusion.align"),
    ("otfuse.experiment", "fuse", "fusion.fuse"),
    ("otfuse.experiment", "direct_average", "fusion.direct_average"),
    ("otfuse.fusion", "row_distance_matrix", "linalg.row_distance_matrix"),
    ("otfuse.fusion", "matmul", "linalg.matmul"),
    ("otfuse.fusion", "transpose", "linalg.transpose"),
    ("otfuse.fusion", "solve_exact", "transport.solve_exact"),
    ("otfuse.fusion", "solve_sinkhorn", "transport.solve_sinkhorn"),
    ("otfuse.fusion", "hard_permutation", "transport.hard_permutation"),
    ("otfuse.fusion", "identity_map", "transport.identity_map"),
    ("otfuse.fusion", "ot_objective", "transport.ot_objective"),
    ("otfuse.fusion", "validate_checkpoint", "nets.validate_checkpoint"),
    ("otfuse.fusion", "make_checkpoint", "nets.make_checkpoint"),
    ("otfuse.fusion", "interpolate", "nets.interpolate"),
    ("otfuse.nets", "loss_gradients", "nets.loss_gradients"),
    ("otfuse.nets", "init_checkpoint", "nets.init_checkpoint"),
    ("otfuse.nets", "make_checkpoint", "nets.make_checkpoint"),
    ("otfuse.serialize", "make_checkpoint", "nets.make_checkpoint"),
    # bindings the benchmark's own set-up calls
    ("otfuse.data", "gen_synthetic", "data.gen_synthetic"),
    ("otfuse.nets", "train", "nets.train"),
    ("otfuse.serialize", "save_checkpoint", "serialize.save_checkpoint"),
)


def _row_distance_attrs(args, result):
    a, b = args[0], args[1]
    # m * m * k float64 values: the size of the difference tensor the
    # function forms, computed from the shapes rather than measured
    return {"computed_bytes": np.shape(a)[0] * np.shape(b)[0] * np.shape(a)[1] * 8}


def _sinkhorn_attrs(args, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


ATTRS = {
    "linalg.row_distance_matrix": _row_distance_attrs,
    "transport.solve_sinkhorn": _sinkhorn_attrs,
}


FIELDS = ("name", "op", "parent", "start", "end", "failed", "attrs")


class Span:
    __slots__ = FIELDS

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start



class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> Span:
        span = Span(name, self._op, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id, name: str):
        """Install the wrappers and record the whole operation as one span."""
        saved = []
        self._op = op_id
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name, original))
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                yield span
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op = None

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span; ``parent`` is the index of the parent span's line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(FIELDS) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.name, s.op, s.parent, s.start, s.end, s.failed, s.attrs]) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out


def covered_seconds(spans: list[Span], prefixes: tuple[str, ...], ops) -> float:
    """Time in spans whose name starts with one of ``prefixes``, counting a
    matching span only when no ancestor matches too."""
    total = 0.0
    for s in spans:
        if s.op not in ops or not s.name.startswith(prefixes):
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith(prefixes):
            p = spans[p].parent
        if p is None:
            total += s.seconds
    return total
