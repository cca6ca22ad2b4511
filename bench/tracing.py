"""Span tracing for the benchmark's traced run.

Only the traced run installs the tracer, and it does so from here: each
traced public function is replaced by a wrapper at every ``qcharm`` module
that holds a reference to it (``scenarios`` imports ``gradient_frames``,
``surface_area`` and others by name), and the wrappers are removed again
afterwards.  The program's source is never touched.

A span records (id, parent id, operation id, name, start, end, work count,
raised).  Work done by ``verify``'s stage thread pool is attached to the
operation's ``verify`` span: the pool class that ``scenarios`` uses is
swapped for one whose ``submit`` wraps each stage in a span parented by the
submitting thread's current span.

Self time is a span's duration minus the part of its interval that its
child spans cover (children can run in parallel on the pool's threads, so
coverage is the length of the union of their intervals).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _arg(i, name):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]

    return get


_z = _arg(1, "z")
_t = _arg(1, "t")


def _points(get):
    return lambda args, kwargs, result: int(np.size(get(args, kwargs)))


def _terms(args, kwargs, result):
    poly = args[0]
    return int(np.size(_t(args, kwargs))) * (poly.degree + 1) * poly.dim


# (module, qualified name, span name, work count from (args, kwargs, result)).
# Every function whose time a layer metric or a layer share needs; a call
# that is not wrapped counts as self time of the nearest wrapped caller.
TRACED = (
    ("qcharm.poisson", "gradient_frames", "poisson.gradient_frames", _points(_z)),
    ("qcharm.poisson", "poisson_extend", "poisson.poisson_extend", _points(_z)),
    ("qcharm.poisson", "BoundaryMap.values", "poisson.BoundaryMap.values", _points(_t)),
    ("qcharm.curves", "TrigPolynomial.__call__", "curves.TrigPolynomial.eval", _terms),
    ("qcharm.curves", "build_curve", "curves.build_curve", None),
    ("qcharm.curves", "arc_length_reparametrize", "curves.arc_length_reparametrize", None),
    ("qcharm.curves", "compute_curve_constants", "curves.compute_curve_constants", lambda a, k, r: r.refinement_depth),
    ("qcharm.curves", "dini_modulus_table", "curves.dini_modulus_table", None),
    ("qcharm.kernels", "kernel_bound_dini", "kernels.kernel_bound_dini", None),
    ("qcharm.kernels", "kernel_bound_holder", "kernels.kernel_bound_holder", None),
    ("qcharm.kernels", "boundary_jacobian_bound", "kernels.boundary_jacobian_bound", None),
    ("qcharm.bounds", "surface_area", "bounds.surface_area", None),
    ("qcharm.bounds", "isoperimetric_check", "bounds.isoperimetric_check", None),
    ("qcharm.scenarios", "make_scenario", "scenarios.make_scenario", None),
    ("qcharm.scenarios", "verify", "scenarios.verify", None),
    ("qcharm.report", "dumps", "report.dumps", lambda a, k, r: len(r)),
    ("qcharm.cli", "main", "cli.main", None),
)

OP_SPAN = "bench.op"
STAGE_SPAN = "scenarios.verify.stage"
EXTENSION = ("poisson.gradient_frames", "poisson.poisson_extend")
VALUES = "poisson.BoundaryMap.values"


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, work, args, kwargs, default_parent=None):
        stack = self._stack()
        parent = stack[-1] if stack else default_parent
        sid = next(self._ids)
        stack.append(sid)
        result = None
        raised = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            raised = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            count = work(args, kwargs, result) if work is not None and not raised else 0
            self.spans.append((sid, parent, self.op, name, start, end, count, raised))

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, work, args, kwargs)

        return traced

    @contextlib.contextmanager
    def operation(self, index: int):
        """Root span of one benchmark operation."""
        self.op = index
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, index, OP_SPAN, start, end, 0, False))

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "qcharm" or n.startswith("qcharm.")]
        for mod_name, qualname, span, work in TRACED:
            owner = sys.modules[mod_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(span, original, work))
                continue
            original = getattr(owner, qualname)
            wrapper = self.wrap(span, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        self._patch(sys.modules["qcharm.scenarios"], "ThreadPoolExecutor", self._pool_class())

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def stage(*a, **k):
                    return tracer._record(STAGE_SPAN, fn, None, a, k, default_parent=parent)

                return super().submit(stage, *args, **kwargs)

        return TracedPool

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _layer(name: str) -> str:
    if name in EXTENSION:
        return "poisson"
    if name == VALUES:
        return VALUES
    return name.split(".")[0]


SHARE_LAYERS = ("poisson", VALUES, "curves", "kernels", "bounds", "scenarios", "report", "cli", "bench")


class LayerStats:
    """Per-name and per-layer totals over the spans of many operations."""

    def __init__(self):
        self.ops = 0
        self.spans = 0
        self.calls = defaultdict(int)  # outermost spans of a name
        self.work = defaultdict(float)
        self.busy = defaultdict(float)  # duration of outermost spans
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.values_in_extension = 0  # BoundaryMap.values calls inside an extension call
        self.values_in_extension_s = 0.0

    def add(self, spans):
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)
        self.ops += sum(1 for s in spans if s[3] == OP_SPAN)
        self.spans += len(spans)
        for sid, parent, _, name, start, end, count, raised in spans:
            kids = children.get(sid, ())
            covered = _union_length((max(k[4], start), min(k[5], end)) for k in kids) if kids else 0.0
            self_s = max(end - start - covered, 0.0)
            self.self_s[name] += self_s
            self.layer_self[_layer(name)] += self_s
            self.raised[name] += raised
            ancestors = set()
            p = parent
            while p is not None and p in by_id:
                ancestors.add(by_id[p][3])
                p = by_id[p][1]
            if name in ancestors:
                continue
            self.calls[name] += 1
            self.work[name] += count
            self.busy[name] += end - start
            if name == VALUES and ancestors.intersection(EXTENSION):
                self.values_in_extension += 1
                self.values_in_extension_s += end - start

    def metrics(self) -> dict:
        """Per-layer metrics; counts and busy seconds are per operation."""
        ops = max(self.ops, 1)
        total_self = sum(self.layer_self.values()) or 1.0

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        ext_calls = sum(self.calls[n] for n in EXTENSION)
        ext_busy = sum(self.busy[n] for n in EXTENSION)
        pair_calls = self.calls["kernels.kernel_bound_dini"] + self.calls["kernels.kernel_bound_holder"]
        pair_busy = self.busy["kernels.kernel_bound_dini"] + self.busy["kernels.kernel_bound_holder"]
        gf = "poisson.gradient_frames"
        bjb = "kernels.boundary_jacobian_bound"
        tp = "curves.TrigPolynomial.eval"
        out = {
            f"{gf}.calls": (per_op(self.calls[gf]), "count/op"),
            f"{gf}.points": (per_op(self.work[gf]), "count/op"),
            f"{gf}.busy_s": (per_op(self.busy[gf]), "s/op"),
            f"{gf}.s_per_1e4_points": (ratio(self.busy[gf] * 1e4, self.work[gf]), "s"),
            "poisson.poisson_extend.points": (per_op(self.work["poisson.poisson_extend"]), "count/op"),
            "poisson.poisson_extend.busy_s": (per_op(self.busy["poisson.poisson_extend"]), "s/op"),
            "poisson.rule_evals_per_call": (ratio(self.values_in_extension, ext_calls), "count"),
            f"{VALUES}.points": (per_op(self.work[VALUES]), "count/op"),
            f"{VALUES}.busy_s": (per_op(self.busy[VALUES]), "s/op"),
            f"{VALUES}.share_of_extension": (ratio(self.values_in_extension_s, ext_busy), "ratio"),
            f"{tp}.terms": (per_op(self.work[tp]), "count/op"),
            f"{tp}.busy_s": (per_op(self.busy[tp]), "s/op"),
            "curves.compute_curve_constants.busy_s": (per_op(self.busy["curves.compute_curve_constants"]), "s/op"),
            "curves.refinement_depth": (
                ratio(self.work["curves.compute_curve_constants"], self.calls["curves.compute_curve_constants"]),
                "count",
            ),
            "curves.arc_length_reparametrize.busy_s": (per_op(self.busy["curves.arc_length_reparametrize"]), "s/op"),
            "curves.dini_modulus_table.busy_s": (per_op(self.busy["curves.dini_modulus_table"]), "s/op"),
            "curves.build_curve.busy_s": (per_op(self.busy["curves.build_curve"]), "s/op"),
            f"{bjb}.calls": (per_op(self.calls[bjb]), "count/op"),
            f"{bjb}.busy_s": (per_op(self.busy[bjb]), "s/op"),
            f"{bjb}.s_per_tau": (ratio(self.busy[bjb], self.calls[bjb]), "s"),
            f"{bjb}.failed": (per_op(self.raised[bjb]), "count/op"),
            "kernels.kernel_bound_dini.calls": (per_op(self.calls["kernels.kernel_bound_dini"]), "count/op"),
            "kernels.kernel_bound_dini.busy_s": (per_op(self.busy["kernels.kernel_bound_dini"]), "s/op"),
            "kernels.kernel_bound_holder.calls": (per_op(self.calls["kernels.kernel_bound_holder"]), "count/op"),
            "kernels.kernel_bound_holder.busy_s": (per_op(self.busy["kernels.kernel_bound_holder"]), "s/op"),
            "kernels.majorant.s_per_1e4_pairs": (ratio(pair_busy * 1e4, pair_calls), "s"),
            "bounds.surface_area.busy_s": (per_op(self.busy["bounds.surface_area"]), "s/op"),
            "bounds.surface_area.self_s": (per_op(self.self_s["bounds.surface_area"]), "s/op"),
            "scenarios.make_scenario.busy_s": (per_op(self.busy["scenarios.make_scenario"]), "s/op"),
            "scenarios.verify.busy_s": (per_op(self.busy["scenarios.verify"]), "s/op"),
            "scenarios.verify.self_s": (per_op(self.self_s["scenarios.verify"]), "s/op"),
            "report.dumps.busy_s": (per_op(self.busy["report.dumps"]), "s/op"),
            "report.dumps.bytes": (per_op(self.work["report.dumps"]), "B/op"),
            "cli.main.self_s": (per_op(self.self_s["cli.main"]), "s/op"),
            "trace.spans_per_op": (per_op(self.spans), "count/op"),
        }
        for layer in SHARE_LAYERS:
            out[f"share.{layer}"] = (self.layer_self[layer] / total_self, "ratio")
        return out
