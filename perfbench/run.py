"""Benchmark launcher for omegacont.

    python3 perfbench/run.py --workload homotopy-ten|convolve-nstar|cli-roundtrip|all
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every measuring process is a fresh ``worker.py`` with BLAS and
OpenMP pinned to one thread.

``--trace 0`` starts five set-up probes and one measuring worker and reports
the end-to-end metrics listed in ``BENCHMARK.json``.  ``--trace 1`` starts
an untraced worker and then a traced worker, half of ``--seconds`` each, and
reports the per-layer metrics.  Both print the per-operation correctness
table first and, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when the oracle self-test fails, when a traced run's
attribution checks fail, or when any operation fails that is not listed in
``workloads.KNOWN_DEFECTS``.  Known defects still count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["homotopy-ten", "convolve-nstar", "cli-roundtrip"]
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run must end within 180 s
SELF_SUM_TOL = 0.02  # traced self times vs each operation's wall time
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# layers that must never run on a workload, as a check on attribution
FORBIDDEN = {
    "homotopy-ten": ("continuation.", "germs.", "models.", "cli."),
    "convolve-nstar": ("cli.",),
    "cli-roundtrip": (),
}


class BenchError(Exception):
    pass


def worker(root, deadline, workload, seed, seconds, mode) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--root", root]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed nothing")
    return json.loads(lines[-1])


def _runs(op) -> int:
    """Checked runs of one operation, the warm-up pass included."""
    return op["ok"] + op["failed"]


def _unexpected(ops):
    return [op["name"] for op in ops if op["failed"] and not op["known_defect"]]


def end_to_end(plain, setups) -> dict:
    times = [t for op in plain["ops"] for t in op["times"]]
    attempted = sum(_runs(op) for op in plain["ops"])
    ok = sum(op["ok"] for op in plain["ops"])
    return {
        "wall_s": (statistics.median(plain["pass_walls"]), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
        "pass_ratio": (ok / attempted, "ratio"),
    }


def per_layer(plain, traced) -> tuple[dict, list]:
    """Per-layer metrics per pass, and the attribution problems found."""
    tr = traced["trace"]
    passes = tr["passes"]
    out = {}
    for name, self_s in tr["self_s"].items():
        out[f"{name}.self_s"] = (self_s / passes, "s")
        out[f"{name}.calls"] = (tr["calls"][name] / passes, "count")
    work, counts = tr["work"], tr["counts"]
    for key, span in (("mollifier.eval_many.points", "mollifier.eval_many"),
                      ("omega.distance_many.points", "omega.distance_many"),
                      ("paths.eval_many.points", "paths.eval_many"),
                      ("paths.derivative_many.points", "paths.derivative_many"),
                      ("homotopy.t_rows", "homotopy.build"),
                      ("continuation.continue_with_stops.stops", "continuation.continue_with_stops"),
                      ("continuation.continue_along.steps", "continuation.continue_along")):
        out[key] = (work.get(span, 0.0) / passes, "count")
    for key in ("homotopy.s_cols", "homotopy.cols_inserted", "convolution.quad_nodes"):
        out[key] = (counts.get(key, 0.0) / passes, "count")
    # one field value takes two cutoff values
    out["homotopy.field_evals"] = (counts["homotopy.cutoff_points_in_build"] / 2 / passes, "count")
    stops = work.get("continuation.continue_with_stops", 0.0)
    regen = counts["germs.regenerated.in_stops"]
    out["continuation.regen_per_stop"] = (regen / stops if stops else 0.0, "ratio")
    traced_total = sum(tr["op_walls"])
    out["mollifier.eval_many.self_share"] = (
        tr["self_s"].get("mollifier.eval_many", 0.0) / traced_total, "ratio")
    out["cli.bytes_in"] = (sum(op["bytes_in"] for op in traced["ops"]) / passes, "byte")
    out["cli.bytes_out"] = (sum(op["bytes_out"] for op in traced["ops"]) / passes, "byte")
    out["trace.wall_s"] = (statistics.median(traced["pass_walls"]), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(traced["pass_walls"]) / statistics.median(plain["pass_walls"]) - 1.0,
        "ratio")
    sum_err = max(abs(s - w) / w for s, w in zip(tr["op_self_sum"], tr["op_walls"]))
    out["trace.self_sum_err_max"] = (sum_err, "ratio")
    out["trace.spans"] = (tr["spans"] / passes, "count")

    ops = plain["ops"] + traced["ops"]
    errs = [op["err"] for op in ops if op["err"] is not None]
    margins = [op["margin"] for op in ops if op["margin"] is not None]
    if "homotopy.clearance_margin_min" in counts:
        margins.append(counts["homotopy.clearance_margin_min"])
    attempted = sum(_runs(op) for op in ops)
    out["check.oracle_err_max"] = (max(errs, default=0.0), "1")
    out["check.clearance_margin_min"] = (min(margins, default=0.0), "ratio")
    out["check.fail_ratio"] = (sum(op["failed"] for op in ops) / attempted, "ratio")

    problems = []
    if sum_err > SELF_SUM_TOL:
        problems.append(f"self times differ from operation wall time by {sum_err:.1%}")
    for name, calls in tr["calls"].items():
        if calls and name.startswith(FORBIDDEN[traced["workload"]]):
            problems.append(f"{name} called {calls} times on {traced['workload']}")
    return out, problems


def machine(root, plain) -> str:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    m = plain.get("machine", {})
    return (f"machine: nproc={os.cpu_count()} python={m.get('python')} "
            f"numpy={m.get('numpy')} scipy={m.get('scipy')} numba={m.get('numba')} "
            f"blas_threads=1 commit={commit}")


def table(result, seed, mode) -> list[str]:
    lines = [f"== {result['workload']}  seed={seed}  {mode}  timed passes={result['passes']}"
             f"  (warm-up pass {result['warmup_wall']:.3f} s, untimed)",
             f"  {'operation':<22} {'ok/runs':>8} {'p50_s':>9} {'oracle_err':>10} "
             f"{'margin':>7}  note"]
    for op in result["ops"]:
        runs = _runs(op)
        err = "-" if op["err"] is None else f"{op['err']:.2e}"
        margin = "-" if op["margin"] is None else f"{op['margin']:.3f}"
        note = op["detail"]
        if op["known_defect"]:
            note = f"known defect: {op['known_defect']}" + (f" [{note}]" if note else "")
        lines.append(f"  {op['name']:<22} {op['ok']:>3}/{runs:<4} "
                     f"{statistics.median(op['times']):>9.4f} {err:>10} {margin:>7}  {note}")
    return lines


def run_one(root, deadline, workload, seed, seconds, trace) -> tuple[dict, dict, list]:
    """Returns (metrics, counts, printable lines) for one workload."""
    lines, problems = [], []
    if trace:
        plain = worker(root, deadline, workload, seed, seconds / 2, "plain")
        traced = worker(root, deadline, workload, seed, seconds / 2, "traced")
        metrics, problems = per_layer(plain, traced)
        runs = [plain, traced]
        lines += table(plain, seed, "untraced reference") + table(traced, seed, "traced")
    else:
        setups = [worker(root, deadline, workload, seed, 0, "setup")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        plain = worker(root, deadline, workload, seed, seconds, "plain")
        metrics = end_to_end(plain, setups + [plain["setup_s"]])
        runs = [plain]
        lines += table(plain, seed, "untraced")
        n_times = sum(len(op["times"]) for op in plain["ops"])
        lines.append(f"  samples: wall_s {plain['passes']} passes, op_p50_s {n_times} operation "
                     f"runs, setup_s {len(setups) + 1} set-ups")
        lines.append(f"  setup samples (s): {' '.join(f'{s:.4f}' for s in setups + [plain['setup_s']])}")
    st = plain["self_test"]
    lines.append(f"  oracle self-test vs two_pole_oracle: max diff {st['max_diff']:.2e} "
                 f"({'ok' if st['ok'] else 'FAILED'})")
    if not st["ok"]:
        problems.append("oracle self-test failed")
    for r in runs:
        problems += [f"unexpected failure: {name}" for name in _unexpected(r["ops"])]
    lines.append("  " + machine(root, plain))
    counts = {
        "attempted": sum(_runs(op) for r in runs for op in r["ops"]),
        "failed": sum(op["failed"] for r in runs for op in r["ops"]),
        "problems": problems,
    }
    return metrics, counts, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "omegacont", "__init__.py")):
        print("run from the root of an omegacont checkout: src/omegacont is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for name in names:
            got, counts, lines = run_one(root, deadline, name, args.seed, args.seconds,
                                         args.trace)
            print("\n".join(lines))
            prefix = f"{name}." if len(names) > 1 else ""
            for m in wanted:
                if m["name"] not in got:
                    raise BenchError(f"BENCHMARK.json lists {m['name']}, which is not measured")
                value, unit = got[m["name"]]
                if unit != m["unit"]:
                    raise BenchError(f"{m['name']} measured in {unit}, declared {m['unit']}")
                metrics[prefix + m["name"]] = {"value": value, "unit": unit}
                print(f"  {m['name']:<42} {value:>14.6g} {unit}")
            attempted += counts["attempted"]
            failed += counts["failed"]
            problems += [f"{name}: {p}" for p in counts["problems"]]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
