"""Outside-in spans around the package's layers, for the traced run only.

``install`` wraps class methods on their class and each module-level
function at every place a caller looks it up: the package imports
functions by name, so ``omegacont.convolution.continue_with_stops`` and
``omegacont.continuation.continue_with_stops`` are separate bindings of one
function and both get the wrapper.  Spans live in a list in memory
(index, name, parent, operation id, start, end, work count) and are written out
once at the end.  A span's self time is its duration minus the durations
of its direct children, so the self times of one operation's spans sum to
that operation's root span.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import omegacont

ROOT = "op"  # the benchmark's span around one operation

# (span name, module, attribute path) of every wrapped callable
TARGETS = [
    ("mollifier.eval_many", "omegacont.mollifier", "Mollifier.eval_many"),
    ("mollifier.prepare", "omegacont.mollifier", "Mollifier.prepare"),
    ("omega.distance_many", "omegacont.omega", "OmegaSet.distance_many"),
    ("omega.enumerate_in_disk", "omegacont.omega", "OmegaSet.enumerate_in_disk"),
    ("omega.is_addition_stable_window", "omegacont.omega", "OmegaSet.is_addition_stable_window"),
    ("omega.min_gap", "omegacont.omega", "OmegaSet.min_gap"),
    ("paths.eval_many", "omegacont.paths", "PiecewisePath.eval_many"),
    ("paths.derivative_many", "omegacont.paths", "PiecewisePath.derivative_many"),
    ("paths.clearance", "omegacont.paths", "clearance"),
    ("paths.segment_around_zeros", "omegacont.paths", "segment_around_zeros"),
    ("homotopy.build", "omegacont.homotopy", "build_symmetric_homotopy"),
    ("homotopy.validate", "omegacont.homotopy", "validate_homotopy"),
    ("germs.eval", "omegacont.germs", "Germ.eval"),
    ("germs.regenerated", "omegacont.germs", "Germ.regenerated"),
    ("germs.recenter", "omegacont.germs", "Germ.recenter"),
    ("germs.beta_convolve_coeffs", "omegacont.germs", "beta_convolve_coeffs"),
    ("models.coeffs_at", "omegacont.models", "AnalyticModel.coeffs_at"),
    ("continuation.continue_along", "omegacont.continuation", "continue_along"),
    ("continuation.continue_with_stops", "omegacont.continuation", "continue_with_stops"),
    ("continuation.monodromy_delta", "omegacont.continuation", "monodromy_delta"),
    ("convolution.continue_convolution", "omegacont.convolution", "continue_convolution"),
    ("convolution.fiber_convolution_at", "omegacont.convolution", "fiber_convolution_at"),
    ("convolution.convolve_entire", "omegacont.convolution", "convolve_entire"),
    ("cli.main", "omegacont.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT] + [name for name, _, _ in TARGETS]
        self.name_id: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        # (index, name id, parent index, operation id, start, end, work)
        self.spans: list[tuple] = []
        self.next_index = itertools.count()
        self.stack: list[int] = []  # indices of the open spans
        self.counts: dict[str, float] = defaultdict(float)  # totals kept by work functions
        self.op = -1

    def wrap(self, name, fn, work=None):
        """``fn`` recording one span per call.

        ``work`` is None (no work count), ``SIZE`` (the size of the first
        argument after ``self``) or ``work(tracer, args, kwargs, result)``,
        called after the span closes.
        """
        tracer, nid, stack = self, self.name_id[name], self.stack
        record, next_index, clock = self.spans.append, self.next_index.__next__, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = next_index()
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((idx, nid, parent, tracer.op, t0, t1, 0))

        @functools.wraps(fn)
        def traced_sized(*args, **kwargs):
            x = args[1]
            n = x.size if type(x) is np.ndarray else np.size(x)
            idx = next_index()
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((idx, nid, parent, tracer.op, t0, t1, n))

        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            idx = next_index()
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record((idx, nid, parent, tracer.op, t0, t1, 0))
                raise
            t1 = clock()
            stack.pop()
            record((idx, nid, parent, tracer.op, t0, t1, work(tracer, args, kwargs, result)))
            return result

        if work is None:
            return traced
        return traced_sized if work is SIZE else traced_counted

    # ------------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Span fields indexed by span index; self time is the span's
        duration minus the durations of its direct children."""
        raw = np.array(self.spans, dtype=float).reshape(-1, 7)
        raw = raw[np.argsort(raw[:, 0])]
        parent = raw[:, 2].astype(np.int64)
        dur = raw[:, 5] - raw[:, 4]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return {
            "name": raw[:, 1].astype(np.int64),
            "parent": parent,
            "op": raw[:, 3].astype(np.int64),
            "start": raw[:, 4],
            "end": raw[:, 5],
            "self_s": dur - child,
            "work": raw[:, 6],
        }

    def under(self, cols, ancestor: str) -> np.ndarray:
        """Which spans have a span named ``ancestor`` among their ancestors."""
        name, parent = cols["name"], cols["parent"]
        target = self.name_id[ancestor]
        has = parent >= 0
        up = np.where(has, parent, 0)
        flag = has & (name[up] == target)
        while True:  # parents precede children, so this settles within the depth
            nxt = flag | (has & flag[up])
            if np.array_equal(nxt, flag):
                return flag
            flag = nxt

    def summary(self, path: str) -> dict:
        """Writes every span to ``path`` (``.npz``) and returns self time,
        calls and work per name, work behind given ancestors, and self time
        summed per operation."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)
        k = len(self.names)
        name, ops = cols["name"], cols["op"]
        self_s = np.bincount(name, weights=cols["self_s"], minlength=k)
        calls = np.bincount(name, minlength=k)
        work = np.bincount(name, weights=cols["work"], minlength=k)
        counts = dict(self.counts)
        for key, (span, ancestors, weight) in NESTED.items():
            sel = name == self.name_id[span]
            inside = np.zeros(name.size, dtype=bool)
            for a in ancestors:
                inside |= self.under(cols, a)
            counts[key] = float(np.sum(np.where(sel & inside, cols["work"] if weight else 1.0, 0.0)))
        return {
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "work": {n: float(work[i]) for i, n in enumerate(self.names)},
            "counts": counts,
            "op_self_sum": np.bincount(ops[ops >= 0], weights=cols["self_s"][ops >= 0]).tolist(),
            "spans": int(ops.size),
        }


# ----------------------------------------------------------------------
# work counts, recorded on the spans that do the work

SIZE = object()  # marker: the work of a call is the size of its first argument


def _build_work(tr, args, kwargs, result):
    opts = args[2] if len(args) > 2 else kwargs.get("opts", omegacont.HomotopyOptions())
    rows, cols = result.grid.shape
    tr.counts["homotopy.s_cols"] += cols
    tr.counts["homotopy.cols_inserted"] += cols - opts.s_points
    return rows


def _validate_work(tr, args, kwargs, result):
    h = args[0]
    if h.delta_pp > 0:
        margin = result.min_clearance / h.delta_pp
        prev = tr.counts.get("homotopy.clearance_margin_min", margin)
        tr.counts["homotopy.clearance_margin_min"] = min(prev, margin)
    return 0


def _stops_work(tr, args, kwargs, result):
    return len(args[3] if len(args) > 3 else kwargs["stops"])


def _steps_work(tr, args, kwargs, result):
    return len(result.trace) - 1


WORK = {
    "mollifier.eval_many": SIZE,
    "omega.distance_many": SIZE,
    "paths.eval_many": SIZE,
    "paths.derivative_many": SIZE,
    "homotopy.build": _build_work,
    "homotopy.validate": _validate_work,
    "continuation.continue_with_stops": _stops_work,
    "continuation.continue_along": _steps_work,
}

# count name -> (span name, ancestor span names, sum the work (else count spans))
NESTED = {
    "homotopy.cutoff_points_in_build": ("mollifier.eval_many", ("homotopy.build",), True),
    "convolution.quad_nodes": (
        "continuation.continue_with_stops",
        ("convolution.fiber_convolution_at", "convolution.convolve_entire"),
        True,
    ),
    "germs.regenerated.in_stops": (
        "germs.regenerated", ("continuation.continue_with_stops",), False),
}


def install(tracer: Tracer) -> int:
    """Wrap every target at every binding; returns the number of bindings."""
    modules = [m for k, m in sorted(sys.modules.items()) if k == "omegacont" or k.startswith("omegacont.")]
    patched = 0
    for name, module_name, attr in TARGETS:
        module = sys.modules[module_name]
        work = WORK.get(name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], work))
            patched += 1
            continue
        fn = getattr(module, attr)
        wrapped = tracer.wrap(name, fn, work)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    patched += 1
    return patched
