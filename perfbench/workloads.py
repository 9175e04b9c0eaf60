"""The three workloads: their seeded inputs, operations and checks.

Seed 0 uses the acceptance-criterion inputs exactly as written.  Any other
seed moves each interior polyline vertex by up to ``JITTER``; a vertex that
ends a segment through 0 moves only along that segment's line, so the
segment still passes through 0.  ``check_jitter`` confirms with the
benchmark's own geometry that no path changed its zero crossings or its
homotopy class.

Every operation returns its output; ``Op.check`` turns an output into an
``Outcome`` by comparing it with ``oracle`` (values) or with the
benchmark's own distance formula (homotopy grids).  The package is always
reached through module attributes at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import omegacont
import omegacont.cli
import omegacont.germs

import oracle

JITTER = 0.01
CONV_TOL = 1e-5  # criterion-3 tolerance, also used for every value oracle
CLEARANCE_AGREE = 1e-9
OFFSETS = (0j, 0.04 + 0j, -0.03j, 0.02 + 0.02j)

# operation name -> the defect that makes it fail; it still counts as failed
KNOWN_DEFECTS = {
    "continue-data-germ": (
        "a data-only germ Taylor-shifted 13 times returns 1.43e34-4.73e34i "
        "with status converged; the closed form gives 7.363-7.515i"
    ),
}


@dataclass
class Outcome:
    ok: bool
    err: float | None = None  # distance to the value oracle
    margin: float | None = None  # min clearance / delta''
    detail: str = ""


@dataclass
class Op:
    name: str
    run: object  # () -> output
    check: object  # output -> Outcome
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    paths: list = field(default_factory=list)  # (label, original, jittered, set kind)
    outputs: list = field(default_factory=list)  # files the operations write

    def settle(self):
        """Remove what the operations wrote, so that every pass creates its
        files afresh instead of overwriting the previous pass's."""
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)

    def check_jitter(self):
        for label, original, moved, kind in self.paths:
            problem = jitter_problem(original, moved, kind)
            if problem:
                raise ValueError(f"seeded input {label!r} is not admissible: {problem}")


# ----------------------------------------------------------------------
# path descriptions


def polyline(points):
    pts = [complex(p) for p in points]
    return [("segment", a, b) for a, b in zip(pts[:-1], pts[1:])]


def loop_around_one(start, anchor, end):
    """start -> anchor, one counterclockwise circle about 1 through anchor, -> end."""
    theta = math.atan2(anchor.imag, anchor.real - 1.0)
    return (
        polyline([start, anchor])
        + [("arc", 1.0 + 0j, abs(anchor - 1.0), theta, theta + 2.0 * math.pi)]
        + polyline([anchor, end])
    )


def path_json(pieces) -> dict:
    out = []
    for piece in pieces:
        if piece[0] == "segment":
            _, a, b = piece
            out.append({"kind": "segment", "from": [a.real, a.imag], "to": [b.real, b.imag]})
        else:
            _, c, r, th0, th1 = piece
            out.append(
                {
                    "kind": "arc",
                    "center": [c.real, c.imag],
                    "radius": r,
                    "from_angle": th0,
                    "to_angle": th1,
                }
            )
    return {"pieces": out}


def to_path(pieces):
    return omegacont.PiecewisePath.from_dict(path_json(pieces))


def _through_zero(a: complex, b: complex) -> bool:
    d = b - a
    u = min(max(-(a.conjugate() * d).real / (abs(d) ** 2), 0.0), 1.0)
    return abs(a + u * d) < 1e-12


def jitter(points, rng):
    """Move interior vertices by up to JITTER (seed 0 passes ``rng=None``)."""
    pts = [complex(p) for p in points]
    if rng is None:
        return pts
    out = list(pts)
    for k in range(1, len(pts) - 1):
        radius, angle, along = rng.uniform(size=3)
        lines = [j for j in (k - 1, k + 1) if _through_zero(pts[k], pts[j])]
        if len(lines) > 1:
            continue
        if lines:
            out[k] = pts[k] * (1.0 + JITTER * (2.0 * along - 1.0) / abs(pts[k]))
        else:
            out[k] = pts[k] + JITTER * math.sqrt(radius) * complex(
                math.cos(2 * math.pi * angle), math.sin(2 * math.pi * angle)
            )
    return out


def jitter_problem(original, moved, kind) -> str:
    """Why ``moved`` differs from ``original`` in zero crossings or class."""
    zeros = [sum(_through_zero(p[1], p[2]) for p in pcs if p[0] == "segment")
             for pcs in (original, moved)]
    if zeros[0] != zeros[1]:
        return f"zero crossings changed from {zeros[0]} to {zeros[1]}"
    a = oracle.sample(original, 40_000)
    b = oracle.sample(moved, 40_000)
    if abs(a[0] - b[0]) > 1e-12 or abs(a[-1] - b[-1]) > 1e-12:
        return "endpoints moved"
    if float(np.min(oracle.distance(kind, b))) <= 2 * JITTER:
        return "path came within 2*JITTER of the singular set"
    closed = np.concatenate([b, a[::-1]])
    reach = float(np.max(np.abs(closed))) + 1.0
    for p in oracle.points_near(kind, reach):
        w = oracle.winding(closed, p)
        if abs(w) > 0.5:
            return f"homotopy class changed around {p}"
    return ""


# ----------------------------------------------------------------------
# shared checks


def homotopy_outcome(kind, grid_tail, delta_pp, reported_min, report_ok) -> Outcome:
    """validate ok, min clearance >= delta''/2, and the reported minimum
    equal to the benchmark's own distance to the singular set."""
    own = float(np.min(oracle.distance(kind, grid_tail)))
    margin = own / delta_pp if delta_pp > 0 else 0.0
    agree = abs(own - reported_min) <= CLEARANCE_AGREE * max(1.0, own)
    ok = bool(report_ok) and reported_min >= delta_pp / 2.0 and agree
    detail = "" if ok else (
        f"ok={report_ok} min_clearance={reported_min:.6g} own={own:.6g} "
        f"delta''={delta_pp:.6g}"
    )
    return Outcome(ok, None, margin, detail)


def taylor(germ, z: complex) -> complex:
    """The germ's truncated series at ``z``, summed here rather than by
    ``Germ.eval`` so that checks make no calls into the package."""
    return complex(np.polynomial.polynomial.polyval(z - germ.center, germ.coeffs))


def value_outcome(value: complex, reference: complex) -> Outcome:
    err = abs(value - reference)
    ok = bool(err <= CONV_TOL)
    return Outcome(ok, err, None, "" if ok else f"value {value:.6g} vs oracle {reference:.6g}")


# ----------------------------------------------------------------------
# homotopy-ten


def _omega(kind):
    om = omegacont.OmegaSet
    return {
        "nstar": om.positive_integers,
        "two_pi_i": om.two_pi_i_lattice,
        "gauss": om.gauss_integers,
    }[kind]()


HOMOTOPY_CASES = [  # acceptance criterion 5
    ("nstar", [0.5, 0.5 + 2j]),
    ("nstar", [0.5, 0.5 + 1j, 2.5 + 1j, 2.5 - 0.2j]),
    ("nstar", [0.4, -0.4, -0.4 + 0.6j, 0.6 + 0.6j]),
    ("nstar", [0.35, -0.35, -0.35 + 0.3j, 0.35 - 0.3j]),
    ("two_pi_i", [1.0, 1 + 4j, -1 + 4j, -1 + 7j]),
    ("two_pi_i", [1.0, 1.0 + 4 * math.pi * 1j]),
    ("two_pi_i", [0.8, 0.8 - 5j, -0.9 - 5j]),
    ("gauss", [0.3, 0.5 + 0.5j, 1.5 + 0.5j, 2.5 + 0.5j, 2.5 + 1.5j]),
    ("gauss", [0.25, 0.5 - 0.5j, 1.5 - 0.5j, 1.5 - 1.5j]),
    ("gauss", [0.3, 0.5 + 0.5j, 0.5 + 2.5j]),
]


def homotopy_ten(rng, workdir) -> Workload:
    ops, paths = [], []
    for i, (kind, points) in enumerate(HOMOTOPY_CASES):
        original = polyline(points)
        moved = polyline(jitter(points, rng))
        paths.append((f"case{i}", original, moved, kind))
        omega, gamma = _omega(kind), to_path(moved)

        def run(gamma=gamma, omega=omega):
            h = omegacont.build_symmetric_homotopy(gamma, omega)
            return h, omegacont.validate_homotopy(h, omega)

        def check(out, kind=kind):
            h, rep = out
            return homotopy_outcome(
                kind, h.grid[:, 1:], h.delta_pp, rep.min_clearance, rep.ok
            )

        ops.append(Op(f"{kind}-{i}", run, check))
    return Workload("homotopy-ten", ops, paths)


# ----------------------------------------------------------------------
# convolve-nstar


def criterion3_paths(rng):
    """The 'above', 'below-then-up' and 'loop' paths of criterion 3."""
    target = 2.6 + 0.4j
    above = [0.3, 0.5 + 0.4j, target]
    below = [0.3, 0.5 - 0.4j, 1.5 - 0.4j, 1.5 + 0.4j, target]
    anchor = 0.5 + 0.4j
    out = {
        "above": (polyline(above), polyline(jitter(above, rng))),
        "below-then-up": (polyline(below), polyline(jitter(below, rng))),
    }
    moved_anchor = jitter([0.3, anchor, target], rng)[1]
    out["loop"] = (
        loop_around_one(0.3, anchor, target),
        loop_around_one(0.3, moved_anchor, target),
    )
    return out


def _germ_vs_two_pole(pieces, germ) -> Outcome:
    """Worst distance over the criterion-3 probe offsets."""
    end = oracle.end_point(pieces)
    worst = 0.0
    for off in OFFSETS:
        z = germ.center + off
        ref = oracle.two_pole(pieces, 1.0, 2.0, z - end)
        worst = max(worst, abs(taylor(germ, z) - ref))
    ok = bool(worst <= CONV_TOL)
    return Outcome(ok, worst, None, "" if ok else f"max error {worst:.3g}")


def convolve_nstar(rng, workdir) -> Workload:
    nstar = _omega("nstar")
    phi = omegacont.germs.pole_germ(1.0)
    psi = omegacont.germs.pole_germ(2.0)
    ops, paths = [], []
    for label, (original, moved) in criterion3_paths(rng).items():
        paths.append((label, original, moved, "nstar"))
        gamma = to_path(moved)

        def run(gamma=gamma):
            return omegacont.continue_convolution(phi, psi, gamma, nstar)

        ops.append(Op(label, run, lambda chi, moved=moved: _germ_vs_two_pole(moved, chi)))
    return Workload("convolve-nstar", ops, paths)


def self_test(seed: int, tol: float = 1e-13):
    """The oracle against ``two_pole_oracle`` on this seed's criterion-3 paths."""
    worst = 0.0
    for _, moved in criterion3_paths(_rng(seed)).values():
        branch = omegacont.two_pole_oracle(1.0, 2.0, to_path(moved))
        chi = branch.chi
        end = oracle.end_point(moved)
        for off in OFFSETS:
            z = chi.center + off
            worst = max(worst, abs(taylor(chi, z) - oracle.two_pole(moved, 1.0, 2.0, z - end)))
    return worst <= tol, worst


# ----------------------------------------------------------------------
# cli-roundtrip


def _files(workdir):
    out = {}
    for entry in os.scandir(workdir):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


class CliCall:
    """One in-process ``omegacont.cli.main(argv)`` call with its I/O volume."""

    def __init__(self, argv, workdir):
        self.argv = argv
        self.workdir = workdir
        written = {v for k, v in zip(argv, argv[1:]) if k in ("--out", "--trace")}
        self.inputs = [a for a in argv if a.startswith(workdir) and a not in written]

    def __call__(self):
        inputs = sum(os.path.getsize(a) for a in self.inputs if os.path.isfile(a))
        before = _files(self.workdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = omegacont.cli.main(self.argv)
        after = _files(self.workdir)
        written = sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))
        text = out.getvalue()
        lines = [line for line in text.splitlines() if line.strip()]
        payload = json.loads(lines[-1]) if code == 0 and lines else {}
        return {
            "code": code,
            "payload": payload,
            "stderr": err.getvalue().strip()[-200:],
            "bytes_in": inputs,
            "bytes_out": written + len(text.encode()),
        }


def _cli_value(out, reference) -> Outcome:
    """Exit code 0 and the reported value within CONV_TOL of ``reference(out)``."""
    if out["code"] != 0:
        return Outcome(False, None, None, f"exit {out['code']}: {out['stderr']}")
    pair = out["payload"].get("value") or out["payload"].get("constant_term")
    return value_outcome(complex(*pair), reference(out))


def _csv_min_distance(csv_path, chunk=50_000) -> float:
    """Smallest distance to N* over the grid CSV's columns s > 0, read in
    chunks so that the check does not raise the worker's peak memory."""
    best = math.inf
    with open(csv_path) as fh:
        next(fh)
        while True:
            rows = list(itertools.islice(fh, chunk))
            if not rows:
                return best
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
            tail = data[data[:, 1] > 0.0]
            if tail.size:
                best = min(best, float(np.min(oracle.distance("nstar", tail[:, 2] + 1j * tail[:, 3]))))


def _csv_outcome(out, csv_path, digests) -> Outcome:
    """Homotopy grid checks; the CSV is parsed once per run and compared by
    content digest afterwards."""
    if out["code"] != 0:
        return Outcome(False, None, None, f"exit {out['code']}: {out['stderr']}")
    p = out["payload"]
    digest = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    key = digest.hexdigest()
    if key not in digests:
        digests[key] = _csv_min_distance(csv_path)
    own = digests[key]
    delta_pp = p.get("delta_pp") or p.get("clearance_floor", 0.0) * 2.0
    agree = abs(own - p["min_clearance"]) <= CLEARANCE_AGREE * max(1.0, own)
    ok = bool(p.get("ok")) and p["min_clearance"] >= delta_pp / 2.0 and agree
    margin = own / delta_pp if delta_pp > 0 else 0.0
    return Outcome(ok, None, margin, "" if ok else f"grid check failed: {p}")


def cli_roundtrip(rng, workdir) -> Workload:
    def write(name, data):
        target = os.path.join(workdir, name)
        with open(target, "w") as fh:
            json.dump(data, fh)
        return target

    nstar = write("nstar.json", {"generators": [{"kind": "ray", "base": [1, 0], "step": [1, 0]}]})
    one = write("one.json", {"finite": [[1, 0]]})
    hom_points = [0.5, 0.5 + 1j, 2.5 + 1j, 2.5 - 0.2j]
    hom = (polyline(hom_points), polyline(jitter(hom_points, rng)))
    above = criterion3_paths(rng)["above"]
    tail_points = [2.6 + 0.4j, 2.6 - 0.4j, 3.5 - 0.4j]
    tail = (polyline(tail_points), polyline(jitter(tail_points, rng)))
    anchor = 0.5 + 0.45j
    moved_anchor = jitter([0.3, anchor, 0.3], rng)[1]
    loop = (loop_around_one(0.3, anchor, 0.3), loop_around_one(0.3, moved_anchor, 0.3))
    paths = [
        ("homotopy", *hom, "nstar"),
        ("above", *above, "nstar"),
        ("tail", *tail, "nstar"),
        ("loop", *loop, "nstar"),
    ]
    hom_json = write("hom_path.json", path_json(hom[1]))
    above_json = write("above.json", path_json(above[1]))
    tail_json = write("tail.json", path_json(tail[1]))
    loop_json = write("loop.json", path_json(loop[1]))
    h_csv = os.path.join(workdir, "h.csv")
    chi_json = os.path.join(workdir, "chi.json")
    trace_csv = os.path.join(workdir, "trace.csv")
    digests: dict = {}

    def end_offset(pieces, out):
        return complex(*out["payload"]["endpoint"]) - oracle.end_point(pieces)

    # loop used by monodromy_delta: base 0.35 -> 0.5, circle about 1, back
    mono_loop = [
        ("segment", 0.35 + 0j, 0.5 + 0j),
        ("arc", 1.0 + 0j, 0.5, math.pi, 3.0 * math.pi),
        ("segment", 0.5 + 0j, 0.35 + 0j),
    ]
    specs = [
        ("homotopy-build",
         ["homotopy", "--path", hom_json, "--omega", nstar, "--out", h_csv, "--json"],
         lambda out: _csv_outcome(out, h_csv, digests)),
        ("homotopy-validate",
         ["homotopy", "validate", h_csv, "--omega", nstar, "--json"],
         lambda out: _csv_outcome(out, h_csv, digests)),
        ("convolve-geom",
         ["convolve", "--phi", "geom(1)", "--psi", "geom(2)", "--path", above_json,
          "--omega", nstar, "--out", chi_json, "--json"],
         lambda out: _cli_value(out, lambda o: oracle.two_pole(
             above[1], 1.0, 2.0, end_offset(above[1], o)))),
        ("continue-data-germ",
         ["continue", "--germ", chi_json, "--path", tail_json, "--omega", nstar,
          "--trace", trace_csv, "--json"],
         lambda out: _cli_value(out, lambda o: oracle.two_pole(
             above[1] + tail[1], 1.0, 2.0, end_offset(above[1] + tail[1], o)))),
        ("continue-log-loop",
         ["continue", "--germ", "log1m(1)", "--path", loop_json, "--omega", nstar, "--json"],
         lambda out: _cli_value(out, lambda o: oracle.log1m(
             oracle.with_offset(loop[1], end_offset(loop[1], o)), 1.0))),
        ("monodromy-log",
         ["monodromy", "--germ", "log1m(1)", "--omega", one, "--around", "1",
          "--base", "0.35", "--json"],
         lambda out: _cli_value(out, lambda o: oracle.log_monodromy(mono_loop, 1.0))),
        ("convolve-entire-loop",
         ["convolve", "--phi", "poly(0,1)", "--psi", "geom(1)", "--path", loop_json,
          "--omega", nstar, "--entire", "--json"],
         lambda out: _cli_value(out, lambda o: oracle.entire_times_pole(
             loop[1], end_offset(loop[1], o)))),
    ]
    ops = [
        Op(name, CliCall(argv, workdir), check, KNOWN_DEFECTS.get(name))
        for name, argv, check in specs
    ]
    outputs = [h_csv, os.path.join(workdir, "h.json"), chi_json, trace_csv]
    return Workload("cli-roundtrip", ops, paths, outputs)


BY_NAME = {
    "homotopy-ten": homotopy_ten,
    "convolve-nstar": convolve_nstar,
    "cli-roundtrip": cli_roundtrip,
}


def _rng(seed: int):
    return None if seed == 0 else np.random.default_rng(seed)


def build(name: str, seed: int, workdir: str) -> Workload:
    return BY_NAME[name](_rng(seed), workdir)
