"""Command-line front end: JSON in, JSON/CSV out.

Exit codes: 0 success, 1 input or precondition error, 2 validated failure
(a constructed object breached its invariants).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from ._util import pair
from .continuation import continue_along, monodromy_delta
from .convolution import (
    continue_convolution,
    convolve_entire,
    naive_endpoint_convolution,
    two_pole_oracle,
)
from .errors import HomotopyInvariantError, OmegaContError, SchemaError
from .germs import DEFAULT_ORDER, Germ, convolve_at_origin, named_germ
from .homotopy import (
    HomotopyOptions,
    SymmetricHomotopy,
    build_symmetric_homotopy,
    validate_homotopy,
)
from .mollifier import build_mollifier
from .omega import OmegaSet
from .paths import PiecewisePath

_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

OMEGA_SCHEMA = {
    "type": "object",
    "properties": {
        "finite": {"type": "array", "items": _COMPLEX_PAIR},
        "generators": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "kind": {"enum": ["ray", "lattice"]},
                    "base": _COMPLEX_PAIR,
                    "step": _COMPLEX_PAIR,
                    "p1": _COMPLEX_PAIR,
                    "p2": _COMPLEX_PAIR,
                },
                "required": ["kind"],
            },
        },
    },
    "additionalProperties": False,
}

PATH_SCHEMA = {
    "type": "object",
    "properties": {
        "pieces": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "kind": {"enum": ["segment", "arc", "samples"]},
                    "from": _COMPLEX_PAIR,
                    "to": _COMPLEX_PAIR,
                    "center": _COMPLEX_PAIR,
                    "radius": {"type": "number"},
                    "from_angle": {"type": "number"},
                    "to_angle": {"type": "number"},
                    "points": {"type": "array", "items": _COMPLEX_PAIR},
                },
                "required": ["kind"],
            },
        }
    },
    "required": ["pieces"],
    "additionalProperties": False,
}

GERM_SCHEMA = {
    "type": "object",
    "properties": {
        "center": _COMPLEX_PAIR,
        "coeffs": {"type": "array", "items": _COMPLEX_PAIR, "minItems": 1},
        "radius": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["center", "coeffs", "radius"],
    "additionalProperties": False,
}


def _validate(instance, schema, label):
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.path)
        raise SchemaError(f"{label}: {err.message} at {pointer or '/'}")


def _load_json(path_str, schema, label):
    try:
        data = json.loads(Path(path_str).read_text())
    except FileNotFoundError:
        raise SchemaError(f"{label}: file not found: {path_str}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{label}: invalid JSON: {exc}") from None
    _validate(data, schema, label)
    return data


def _load_omega(path_str) -> OmegaSet:
    return OmegaSet.from_dict(_load_json(path_str, OMEGA_SCHEMA, "omega"))


def _load_path(path_str) -> PiecewisePath:
    return PiecewisePath.from_dict(_load_json(path_str, PATH_SCHEMA, "path"))


def _load_germ(ref, order) -> Germ:
    if os.path.exists(ref) or ref.endswith(".json"):
        return Germ.from_dict(_load_json(ref, GERM_SCHEMA, "germ"))
    return named_germ(ref, order)


def _emit(payload, args):
    if getattr(args, "json", False):
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(json.dumps(payload, indent=2))


def _write_germ(germ, path_str):
    Path(path_str).write_text(json.dumps(germ.to_dict(), indent=2))


def _fmt_c(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}i"


# ----------------------------------------------------------------------
# commands


def _cmd_omega_check(args):
    omega = _load_omega(args.omega)
    report = omega.is_addition_stable_window(args.window)
    payload = {
        "command": "omega-check",
        "window": args.window,
        "addition_stable": report.stable,
    }
    if not report.stable:
        payload["witness"] = [pair(report.witness[0]), pair(report.witness[1])]
        payload["witness_sum"] = pair(report.witness_sum)
    _emit(payload, args)
    if not args.json:
        print(f"addition-stable on window {args.window:g}: {report.stable}")
    return 0


def _cmd_continue(args):
    omega = _load_omega(args.omega)
    path = _load_path(args.path)
    germ = _load_germ(args.germ, args.order)
    result = continue_along(germ, path, omega)
    final = result.final_germ
    payload = {
        "command": "continue",
        "endpoint": pair(final.center),
        "value": pair(final.coeffs[0]),
        "radius": final.radius,
        "steps": len(result.trace),
        "status": result.status,
    }
    if args.out:
        _write_germ(final, args.out)
        payload["germ_file"] = args.out
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "center_re", "center_im", "radius"])
            for t, c, r in result.trace:
                writer.writerow([f"{t:.12g}", f"{c.real:.15g}", f"{c.imag:.15g}", f"{r:.12g}"])
        payload["trace_file"] = args.trace
    _emit(payload, args)
    if not args.json:
        print(f"value at endpoint: {_fmt_c(complex(final.coeffs[0]))}")
    return 0


def _cmd_monodromy(args):
    omega = _load_omega(args.omega)
    germ = _load_germ(args.germ, args.order)
    from ._util import parse_complex

    around = parse_complex(args.around)
    base = parse_complex(args.base)
    delta = monodromy_delta(germ, around, base, omega)
    payload = {
        "command": "monodromy",
        "around": pair(around),
        "base": pair(base),
        "constant_term": pair(delta.coeffs[0]),
        "coeff_norm": float(np.max(np.abs(delta.coeffs))),
    }
    if args.out:
        _write_germ(delta, args.out)
        payload["germ_file"] = args.out
    _emit(payload, args)
    return 0


def _cmd_convolve(args):
    omega = _load_omega(args.omega)
    path = _load_path(args.path)
    phi = _load_germ(args.phi, args.order)
    psi = _load_germ(args.psi, args.order)
    if args.entire:
        germ = convolve_entire(phi, psi, path, omega, args.order)
    elif args.naive:
        germ = naive_endpoint_convolution(phi, psi, path, omega, args.order)
    else:
        germ = continue_convolution(phi, psi, path, omega, args.order)
    payload = {
        "command": "convolve",
        "mode": "entire" if args.entire else ("naive" if args.naive else "fiber"),
        "endpoint": pair(germ.center),
        "value": pair(germ.coeffs[0]),
        "radius": germ.radius,
    }
    if args.out:
        _write_germ(germ, args.out)
        payload["germ_file"] = args.out
    _emit(payload, args)
    if not args.json:
        print(f"value at endpoint: {_fmt_c(complex(germ.coeffs[0]))}")
    return 0


def _homotopy_csv(h: SymmetricHomotopy, out_path):
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "re", "im"])
        for i, t in enumerate(h.t_grid):
            for m, s in enumerate(h.s_grid):
                z = h.grid[i, m]
                writer.writerow(
                    [f"{t:.12g}", f"{s:.12g}", f"{z.real:.15g}", f"{z.imag:.15g}"]
                )


def _homotopy_from_csv(csv_path, gamma=None, delta_pp=None):
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(
                (float(row["t"]), float(row["s"]), float(row["re"]), float(row["im"]))
            )
    t_values = sorted({r[0] for r in rows})
    s_values = sorted({r[1] for r in rows})
    t_index = {t: i for i, t in enumerate(t_values)}
    s_index = {s: i for i, s in enumerate(s_values)}
    grid = np.zeros((len(t_values), len(s_values)), dtype=complex)
    for t, s, re, im in rows:
        grid[t_index[t], s_index[s]] = complex(re, im)
    if gamma is None:
        gamma = PiecewisePath.from_samples(grid[:, -1])
        gamma = PiecewisePath(gamma._pieces, domain=(t_values[0], t_values[-1]))
    return SymmetricHomotopy(
        np.array(s_values), np.array(t_values), grid, delta_pp or 0.0, gamma
    )


def _cmd_homotopy(args):
    omega = _load_omega(args.omega)
    if args.action == "validate":
        if not args.grid_csv:
            raise SchemaError("homotopy validate needs the grid CSV path")
        sidecar = Path(args.grid_csv).with_suffix(".json")
        delta_pp = None
        gamma = None
        if sidecar.exists():
            meta = json.loads(sidecar.read_text())
            delta_pp = meta.get("delta_pp")
            if "path_file" in meta and Path(meta["path_file"]).exists():
                gamma = _load_path(meta["path_file"])
        h = _homotopy_from_csv(args.grid_csv, gamma, delta_pp)
        if delta_pp is None:
            h = SymmetricHomotopy(
                h.s_grid,
                h.t_grid,
                h.grid,
                float(np.min(omega.distance_many(h.grid[:, 1:].ravel()))),
                h.path,
            )
        report = validate_homotopy(h, omega)
        _emit({"command": "homotopy-validate", **report.to_dict()}, args)
        return 0 if report.ok else 2
    path = _load_path(args.path)
    opts = HomotopyOptions(
        s_points=args.m, t_density=args.density, substeps=args.substeps
    )
    try:
        h = build_symmetric_homotopy(path, omega, opts)
    except HomotopyInvariantError as exc:
        _emit({"command": "homotopy", "error": str(exc), **(exc.report.to_dict() if exc.report else {})}, args)
        return 2
    report = validate_homotopy(h, omega, sym_tol=opts.sym_tol, end_tol=opts.end_tol)
    payload = {
        "command": "homotopy",
        "t_points": int(h.t_grid.size),
        "s_points": int(h.s_grid.size),
        "delta_pp": h.delta_pp,
        **report.to_dict(),
    }
    if args.out:
        _homotopy_csv(h, args.out)
        sidecar = Path(args.out).with_suffix(".json")
        sidecar.write_text(
            json.dumps(
                {"delta_pp": h.delta_pp, "path_file": args.path, **report.to_dict()},
                indent=2,
            )
        )
        payload["grid_file"] = args.out
        payload["sidecar"] = str(sidecar)
    _emit(payload, args)
    return 0 if report.ok else 2


def _cmd_eta(args):
    omega = _load_omega(args.omega)
    m = build_mollifier(omega, args.eps, include_origin=not args.no_origin)
    try:
        xs = [float(x) for x in args.grid.split(",")]
        x0, x1, nx, y0, y1, ny = xs
        nx, ny = int(nx), int(ny)
    except Exception:
        raise SchemaError("grid must be 'x0,x1,nx,y0,y1,ny'") from None
    xv = np.linspace(x0, x1, nx)
    yv = np.linspace(y0, y1, ny)
    out = args.out or "eta.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "eta"])
        for y in yv:
            vals = m.eval_many(xv + 1j * y)
            for x, v in zip(xv, vals):
                writer.writerow([f"{x:.12g}", f"{y:.12g}", f"{v:.15g}"])
    _emit({"command": "eta", "grid_file": out, "rows": int(nx * ny)}, args)
    return 0


def _cmd_verify(args):
    if args.suite != "paper-examples":
        raise SchemaError(f"unknown suite {args.suite!r}")
    rows = []
    t_start = time.time()

    def check(name, value, reference, tol):
        residual = abs(value - reference)
        rows.append((name, residual, tol, residual <= tol))

    # origin convolution against quadrature on seeded random polynomials
    rng = np.random.default_rng(20240817)
    from scipy.integrate import quad

    for trial in range(10):
        deg = int(rng.integers(2, 9))
        ca = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        cb = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        ca /= np.maximum(np.abs(ca), 1.0)
        cb /= np.maximum(np.abs(cb), 1.0)
        f = Germ(0j, ca, 1e300)
        g = Germ(0j, cb, 1e300)
        conv = convolve_at_origin(f, g, 2 * deg + 2)
        z = complex(rng.normal(scale=0.4), rng.normal(scale=0.4))

        def integrand(u, part):
            val = (
                np.polynomial.polynomial.polyval(u * z, ca)
                * np.polynomial.polynomial.polyval((1 - u) * z, cb)
                * z
            )
            return val.real if part == 0 else val.imag

        re_part = quad(integrand, 0.0, 1.0, args=(0,), limit=200)[0]
        im_part = quad(integrand, 0.0, 1.0, args=(1,), limit=200)[0]
        check(
            f"origin-convolution[{trial}]",
            complex(conv.eval(z, tail_tol=None)),
            complex(re_part, im_part),
            1e-10,
        )

    # detour branch values for the two-pole closed form
    detour = _lower_detour_path([1.0], 2.0)
    branch = two_pole_oracle(1.0, 1.0, detour)
    check("detour L1 value", complex(branch.germ1.coeffs[0]), 1j * math.pi, 1e-6)
    check("detour bracket", complex(branch.bracket.coeffs[0]), 2j * math.pi, 1e-6)
    detour12 = _lower_detour_path([1.0, 2.0], 3.0)
    branch12 = two_pole_oracle(1.0, 2.0, detour12)
    check(
        "detour L1 (distinct poles)",
        complex(branch12.germ1.coeffs[0]),
        math.log(2.0) + 1j * math.pi,
        1e-6,
    )

    # removable branch along the symmetric mixed detour
    sym_path = PiecewisePath.polyline([0, 0.5 + 0.6j, 1.5, 2.5 - 0.6j, 3.0])
    sym_branch = two_pole_oracle(1.0, 2.0, sym_path)
    check("mixed-detour bracket", complex(sym_branch.bracket_at_sum), 0.0, 1e-8)

    # monodromy of the logarithm
    omega_one = OmegaSet([1.0])
    log_germ = named_germ("log1m(1)").scale(-1.0)  # -log(1 - z)
    delta = monodromy_delta(log_germ, 1.0, 0.35, omega_one)
    check("log monodromy constant", complex(delta.coeffs[0]), -2j * math.pi, 1e-7)
    check(
        "log monodromy higher coeffs",
        float(np.max(np.abs(delta.coeffs[1:]))),
        0.0,
        1e-7,
    )

    # entire-factor formula against the fiber transport on a loop
    nstar = OmegaSet.positive_integers()
    loop = PiecewisePath.concatenate(
        PiecewisePath.polyline([0.3, 0.5 + 0.45j]),
        PiecewisePath.circle(1.0, abs(0.5 + 0.45j - 1.0), math.atan2(0.45, -0.5)),
        PiecewisePath.polyline([0.5 + 0.45j, 0.3]),
    )
    ident = named_germ("poly(0,1)")
    pole = named_germ("geom(1)")
    lhs = convolve_entire(ident, pole, loop, nstar)
    rhs = continue_convolution(ident, pole, loop, nstar)
    probe = lhs.center + 0.04 + 0.03j
    check(
        "entire vs fiber transport",
        complex(lhs.eval(probe)),
        complex(rhs.eval(probe)),
        1e-6,
    )

    # with --json, stdout carries the JSON document alone
    human = sys.stderr if args.json else sys.stdout
    width = max(len(r[0]) for r in rows)
    print(f"verification suite: paper-examples ({len(rows)} checks)", file=human)
    ok_all = True
    for name, residual, tol, ok in rows:
        ok_all &= ok
        status = "PASS" if ok else "FAIL"
        print(
            f"  {name:<{width}}  residual={residual:.3e}  tol={tol:.0e}  {status}", file=human
        )
    print(f"total time: {time.time() - t_start:.1f}s", file=human)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "verify",
                    "suite": args.suite,
                    "checks": [
                        {"name": n, "residual": r, "tol": t, "ok": bool(o)}
                        for n, r, t, o in rows
                    ],
                    "ok": bool(ok_all),
                }
            )
        )
    return 0 if ok_all else 2


def _lower_detour_path(poles, endpoint, radius=0.2):
    """Segment toward the endpoint, dodging each pole by a lower half circle."""
    pieces = []
    cursor = 0.0
    for p in sorted(poles):
        pieces.append(PiecewisePath.segment(cursor, p - radius))
        pieces.append(PiecewisePath.arc(p, radius, math.pi, 2 * math.pi))
        cursor = p + radius
    pieces.append(PiecewisePath.segment(cursor, endpoint))
    return PiecewisePath.concatenate(*pieces)


# ----------------------------------------------------------------------
# parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="omegacont",
        description="Continuation and convolution of Borel-plane germs "
        "with prescribed singular support",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega-check", help="addition-stability window check")
    p.add_argument("--omega", required=True)
    p.add_argument("--window", type=float, default=100.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_omega_check)

    p = sub.add_parser("continue", help="continue a germ along a path")
    p.add_argument("--germ", required=True, help="germ JSON file or literal")
    p.add_argument("--path", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out")
    p.add_argument("--trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_continue)

    p = sub.add_parser("monodromy", help="germ change around one loop")
    p.add_argument("--germ", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--around", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("convolve", help="continue a convolution product")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--entire", action="store_true", help="first factor entire")
    p.add_argument("--naive", action="store_true", help="endpoint-path integral (demo)")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("homotopy", help="build or validate a symmetric homotopy")
    p.add_argument("action", nargs="?", default="build", choices=["build", "validate"])
    p.add_argument("grid_csv", nargs="?")
    p.add_argument("--path")
    p.add_argument("--omega", required=True)
    p.add_argument("--out")
    p.add_argument("--m", type=int, default=257)
    p.add_argument("--density", type=float, default=50.0)
    p.add_argument("--substeps", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("eta", help="dump the cutoff on a grid")
    p.add_argument("--omega", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--no-origin", action="store_true")
    p.add_argument("--grid", default="-3,3,121,-3,3,121")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("--suite", default="paper-examples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except HomotopyInvariantError as exc:
        print(f"validated failure: {exc}", file=sys.stderr)
        return 2
    except OmegaContError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
