"""One measuring process for one workload; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--mode setup|plain|traced] --root CHECKOUT

``setup`` times the import and input construction and stops.  ``plain``
and ``traced`` also run whole passes over the workload's operations until
``--seconds`` have been measured (at least one pass), check every output,
and print one JSON object as the last line of stdout.  ``traced`` installs
the span wrappers first and adds the per-layer figures; ``plain`` also runs
the oracle self-test.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

T_START = time.perf_counter()


def _main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=["setup", "plain", "traced"], default="plain")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    import omegacont

    src = os.path.join(os.path.realpath(args.root), "src")
    if not os.path.realpath(omegacont.__file__).startswith(src + os.sep):
        print(f"omegacont imported from {omegacont.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    scratch = os.path.join(args.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wl.check_jitter()
        result = measure(wl, args, setup_s, scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, args, setup_s, scratch) -> dict:
    import workloads

    import numpy
    import scipy

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": "present" if importlib.util.find_spec("numba") else "absent",
        },
    }
    if args.mode == "plain":
        ok, worst = workloads.self_test(args.seed)
        result["self_test"] = {"ok": ok, "max_diff": worst}
    ops = [{"name": op.name, "known_defect": op.known_defect, "times": [], "ok": 0,
            "failed": 0, "err": None, "margin": None, "detail": "", "bytes_in": 0,
            "bytes_out": 0} for op in wl.ops]
    # an untimed first pass lets the allocator's heap grow to its working size
    warm_wall = sum(run_pass(wl, ops, None))
    for rec in ops:
        rec["bytes_in"] = rec["bytes_out"] = 0  # I/O volume is reported per timed pass
    tracer = root_span = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        root_span = tracer.wrap(tracing.ROOT, lambda run: run())

    pass_walls, op_walls = [], []
    while not pass_walls or sum(pass_walls) < args.seconds:
        if tracer is not None:
            tracer.op = len(op_walls)
        times = run_pass(wl, ops, tracer, root_span)
        for rec, dt in zip(ops, times):
            rec["times"].append(dt)
        pass_walls.append(sum(times))
        op_walls += times
    result.update(
        warmup_wall=warm_wall,
        passes=len(pass_walls),
        pass_walls=pass_walls,
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        spans_file = os.path.join(scratch, f"spans-{wl.name}.npz")
        result["trace"] = trace_summary(tracer, op_walls, len(pass_walls), spans_file)
    return result


def run_pass(wl, ops, tracer, root_span=None) -> list[float]:
    """Every operation once, in order, each checked as soon as it returns
    (untimed, and without calling the package).  Returns the operations'
    wall times; a pass's wall time is their sum."""
    gc.collect()
    times = []
    for rec, op in zip(ops, wl.ops):
        t0 = time.perf_counter()
        try:
            out = op.run() if root_span is None else root_span(op.run)
            error = None
        except Exception:  # a failing operation is counted, and the pass goes on
            out, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op += 1
        record(rec, op, out, error)
        del out
    wl.settle()
    return times


def record(rec, op, out, error):
    """Fold one output's check into the operation's record."""
    if error is None:
        try:
            outcome = op.check(out)
        except Exception:
            outcome = None
            error = "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    if error is not None:
        rec["failed"] += 1
        rec["detail"] = error
        return
    if isinstance(out, dict) and "bytes_in" in out:
        rec["bytes_in"] += out["bytes_in"]
        rec["bytes_out"] += out["bytes_out"]
    if outcome.err is not None:
        rec["err"] = max(rec["err"] or 0.0, outcome.err)
    if outcome.margin is not None:
        rec["margin"] = outcome.margin if rec["margin"] is None else min(rec["margin"], outcome.margin)
    if outcome.ok:
        rec["ok"] += 1
    else:
        rec["failed"] += 1
        rec["detail"] = outcome.detail


def trace_summary(tracer, op_walls, passes, spans_file) -> dict:
    """The tracer's summary plus the pass count and each operation's wall time."""
    summary = tracer.summary(spans_file)
    summary.update(passes=passes, op_walls=op_walls)
    return summary


if __name__ == "__main__":
    sys.exit(_main())
