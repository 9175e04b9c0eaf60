"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them).
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from omegacont import (
    OmegaSet,
    PiecewisePath,
    build_mollifier,
    build_symmetric_homotopy,
    continue_along,
    continue_convolution,
    convolve_at_origin,
    convolve_entire,
    fiber_convolution_at,
    flow,
    monodromy_delta,
    named_germ,
    two_pole_oracle,
    validate_homotopy,
    vector_field,
)
from omegacont.germs import Germ, log_pole_germ, pole_germ
from omegacont.homotopy import _field_block

NSTAR = OmegaSet.positive_integers()
TWO_PI_I = OmegaSet.two_pi_i_lattice()
GAUSS = OmegaSet.gauss_integers()


def report(number, label, elapsed, budget, detail=""):
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s < {budget:.0f}s) {detail}")


def lower_detour(poles, endpoint, radius=0.2):
    pieces = []
    cursor = 0.0
    for p in sorted(poles):
        pieces.append(PiecewisePath.segment(cursor, p - radius))
        pieces.append(PiecewisePath.arc(p, radius, math.pi, 2 * math.pi))
        cursor = p + radius
    pieces.append(PiecewisePath.segment(cursor, endpoint))
    return PiecewisePath.concatenate(*pieces)


def test_criterion_1_origin_convolution_vs_quadrature(rng):
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        da = int(rng.integers(0, 9))
        db = int(rng.integers(0, 9))
        ca = rng.normal(size=da + 1) + 1j * rng.normal(size=da + 1)
        cb = rng.normal(size=db + 1) + 1j * rng.normal(size=db + 1)
        ca /= np.maximum(np.abs(ca), 1.0)  # coefficients inside the unit disk
        cb /= np.maximum(np.abs(cb), 1.0)
        f = Germ(0.0, ca, 1e300)
        g = Germ(0.0, cb, 1e300)
        conv = convolve_at_origin(f, g, da + db + 2)
        for _ in range(5):
            z = complex(rng.normal(scale=0.5), rng.normal(scale=0.5))

            def integrand(t, part):
                v = (
                    np.polynomial.polynomial.polyval(t * z, ca)
                    * np.polynomial.polynomial.polyval((1 - t) * z, cb)
                    * z
                )
                return v.real if part == 0 else v.imag

            oracle = complex(
                quad(integrand, 0, 1, args=(0,), limit=200)[0],
                quad(integrand, 0, 1, args=(1,), limit=200)[0],
            )
            err = abs(conv.eval(z, tail_tol=None) - oracle) / max(abs(oracle), 1e-12)
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, "origin convolution vs adaptive quadrature", elapsed, 5, f"max rel err {worst:.2e}")


def test_criterion_2_detour_branch_values():
    t0 = time.monotonic()
    equal_poles = two_pole_oracle(1.0, 1.0, lower_detour([1.0], 2.0))
    v1 = complex(equal_poles.germ1.coeffs[0])
    bracket = complex(equal_poles.bracket.coeffs[0])
    assert abs(v1 - 1j * math.pi) <= 1e-6
    assert abs(bracket - 2j * math.pi) <= 1e-6
    distinct = two_pole_oracle(1.0, 2.0, lower_detour([1.0, 2.0], 3.0))
    v2 = complex(distinct.germ1.coeffs[0])
    assert abs(v2 - (math.log(2.0) + 1j * math.pi)) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, "detour branch values i*pi, 2*pi*i, log 2 + i*pi", elapsed, 10)


def test_criterion_3_full_convolution_three_classes():
    t0 = time.monotonic()
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    target = 2.6 + 0.4j
    above = PiecewisePath.polyline([0.3, 0.5 + 0.4j, target])
    below_then_up = PiecewisePath.polyline(
        [0.3, 0.5 - 0.4j, 1.5 - 0.4j, 1.5 + 0.4j, target]
    )
    anchor = 0.5 + 0.4j
    with_loop = PiecewisePath.concatenate(
        PiecewisePath.polyline([0.3, anchor]),
        PiecewisePath.circle(1.0, abs(anchor - 1.0), math.atan2(0.4, -0.5)),
        PiecewisePath.polyline([anchor, target]),
    )
    worst = 0.0
    for path in (above, below_then_up, with_loop):
        chi = continue_convolution(phi, psi, path, NSTAR)
        oracle = two_pole_oracle(1.0, 2.0, path)
        for offset in (0.0, 0.04, -0.03j, 0.02 + 0.02j):
            diff = abs(chi.eval(chi.center + offset) - oracle.chi.eval(oracle.chi.center + offset))
            worst = max(worst, diff)
    assert worst <= 1e-5
    # principal-branch removability at the sum point: the bracket vanishes
    # along the symmetric mixed detour by the reflection change of variable
    sym_path = PiecewisePath.polyline([0.0, 0.5 + 0.6j, 1.5, 2.5 - 0.6j, 3.0])
    branch = two_pole_oracle(1.0, 2.0, sym_path)
    assert branch.bracket_at_sum is not None
    assert abs(branch.bracket_at_sum) <= 1e-8
    assert branch.removable
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, "three homotopy classes + removability", elapsed, 60, f"max diff {worst:.2e}")


def test_criterion_4_pole_scaling_without_addition_stability():
    t0 = time.monotonic()
    omega = OmegaSet([1.0, 2.0])
    witness = omega.is_addition_stable_window(10.0)
    assert not witness.stable
    assert witness.witness == (1.0 + 0j, 2.0 + 0j)
    branch = two_pole_oracle(1.0, 2.0, lower_detour([1.0, 2.0], 3.0))
    assert abs(branch.bracket_at_sum - 2j * math.pi) < 1e-6
    # continue both logarithms to a germ centered at the sum point and
    # evaluate the product closed form on shrinking circles
    tail = PiecewisePath.segment(branch.bracket.center, 3.0)
    g1 = continue_along(branch.germ1, tail, OmegaSet([1.0])).final_germ
    g2 = continue_along(branch.germ2, tail, OmegaSet([2.0])).final_germ
    bracket3 = g1.add(g2)
    scaled = []
    for h in (1e-2, 1e-3, 1e-4):
        z = 3.0 + h * np.exp(2.2j)
        chi_val = bracket3.eval(z) / (z - 3.0)
        scaled.append(abs(chi_val) * h)
    spread = (max(scaled) - min(scaled)) / max(scaled)
    assert spread <= 0.10
    assert min(scaled) > 1.0  # nonzero limit, approximately 2*pi
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(4, "pole scaling at the unstable sum point", elapsed, 30, f"spread {100*spread:.2f}%")


def test_criterion_5_homotopy_invariant_suite():
    t0 = time.monotonic()
    cases = [
        (NSTAR, PiecewisePath.segment(0.5, 0.5 + 2j)),
        (NSTAR, PiecewisePath.polyline([0.5, 0.5 + 1j, 2.5 + 1j, 2.5 - 0.2j])),
        (NSTAR, PiecewisePath.polyline([0.4, -0.4, -0.4 + 0.6j, 0.6 + 0.6j])),  # crosses 0
        (NSTAR, PiecewisePath.polyline([0.35, -0.35, -0.35 + 0.3j, 0.35 - 0.3j])),  # crosses twice
        (TWO_PI_I, PiecewisePath.polyline([1.0, 1 + 4j, -1 + 4j, -1 + 7j])),
        (TWO_PI_I, PiecewisePath.segment(1.0, 1.0 + 4 * math.pi * 1j)),
        (TWO_PI_I, PiecewisePath.polyline([0.8, 0.8 - 5j, -0.9 - 5j])),
        (GAUSS, PiecewisePath.polyline([0.3, 0.5 + 0.5j, 1.5 + 0.5j, 2.5 + 0.5j, 2.5 + 1.5j])),
        (GAUSS, PiecewisePath.polyline([0.25, 0.5 - 0.5j, 1.5 - 0.5j, 1.5 - 1.5j])),
        (GAUSS, PiecewisePath.polyline([0.3, 0.5 + 0.5j, 0.5 + 2.5j])),
    ]
    from omegacont import segment_around_zeros

    crossing = 0
    for omega, path in cases:
        h = build_symmetric_homotopy(path, omega)
        rep = validate_homotopy(h, omega)
        assert rep.symmetry_residual <= 1e-6
        assert rep.endpoint_residual <= 1e-6
        assert h.delta_pp > 0
        assert rep.min_clearance >= h.delta_pp / 2.0
        assert rep.ok
        if not omega.contains(0j, 1e-12):
            if segment_around_zeros(path, omega).n_zeros >= 1:
                crossing += 1
    assert crossing >= 2
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(5, "ten symmetric homotopies validate", elapsed, 120, f"{crossing} cross 0")


def test_criterion_6_vector_field_identities(rng):
    t0 = time.monotonic()
    gamma = PiecewisePath.segment(0.5, 0.5 + 2j)
    m = build_mollifier(NSTAR, 0.12, include_origin=True)
    m.prepare(0j, 12.0)
    # fixed points of the field sit exactly on the singular set
    for omega_pt in (1.0, 2.0, 3.0, 7.0):
        assert abs(vector_field(m, gamma, omega_pt, 0.37)) <= 1e-12
    # conjugation symmetry at random points
    worst = 0.0
    z = rng.uniform(-2, 4, 10_000) + 1j * rng.uniform(-2, 3, 10_000)
    t_vals = rng.uniform(0, 1, 10_000)
    for tt in np.unique(np.round(t_vals, 2))[:50]:
        sel = np.abs(np.round(t_vals, 2) - tt) < 1e-12
        gp, gv = gamma.eval(float(tt)), gamma.derivative(float(tt))
        x1 = _field_block(m, gp, gv, z[sel], float(tt))
        x2 = _field_block(m, gp, gv, gp - z[sel], float(tt))
        worst = max(worst, float(np.max(np.abs(x1 + x2 - gv))))
    assert worst <= 1e-12
    # flow group law at 100 random starts (batched through the integrator)
    z0 = rng.uniform(-1, 3, 100) + 1j * rng.uniform(-1, 2, 100)
    fwd = flow(m, gamma, z0, 0.0, 1.0, 300)
    back = flow(m, gamma, fwd, 1.0, 0.0, 300)
    law = float(np.max(np.abs(back - z0)))
    assert law <= 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, "field identities and flow group law", elapsed, 10, f"group law {law:.1e}")


def test_criterion_7_entire_cross_check():
    t0 = time.monotonic()
    pole = pole_germ(1.0)
    anchor = 0.5 + 0.45j
    loop = PiecewisePath.concatenate(
        PiecewisePath.polyline([0.3, anchor]),
        PiecewisePath.circle(1.0, abs(anchor - 1.0), math.atan2(0.45, -0.5)),
        PiecewisePath.polyline([anchor, 0.3]),
    )
    homotopy = build_symmetric_homotopy(loop, NSTAR)
    worst = 0.0
    for literal in ("one", "poly(0,1)", "poly(0,0,0.5)"):
        a_germ = named_germ(literal)
        lhs = convolve_entire(a_germ, pole, loop, NSTAR)
        rhs = fiber_convolution_at(homotopy, a_germ, pole, NSTAR)
        for offset in (0.0, 0.05, -0.03j):
            worst = max(worst, abs(lhs.eval(lhs.center + offset) - rhs.eval(rhs.center + offset)))
    assert worst <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(7, "entire-factor formula vs fiber transport", elapsed, 30, f"max diff {worst:.2e}")


def test_criterion_8_monodromy():
    t0 = time.monotonic()
    # sign oracle: counterclockwise residue integral of 1/(z-1) is +2*pi*i
    th = np.linspace(0.0, 2 * math.pi, 20001)
    circle = 1.0 + 0.5 * np.exp(1j * th)
    residue = np.trapezoid(1j * 0.5 * np.exp(1j * th) / (circle - 1.0), th)
    assert abs(residue - 2j * math.pi) < 1e-9

    neg_log = named_germ("log1m(1)").scale(-1.0)
    delta = monodromy_delta(neg_log, 1.0, 0.35, OmegaSet([1.0]))
    assert abs(delta.coeffs[0] - (-residue)) <= 1e-7
    assert float(np.max(np.abs(delta.coeffs[1:]))) <= 1e-7

    omega = OmegaSet([1.0, 2.0])
    product = pole_germ(2.0).multiply(log_pole_germ(1.0))
    delta2 = monodromy_delta(product, 1.0, 0.4, omega)
    reference = continue_along(
        pole_germ(2.0).scale(2j * math.pi), PiecewisePath.segment(0.0, 0.4), omega
    ).final_germ
    coeff_err = float(np.max(np.abs(delta2.coeffs[:48] - reference.coeffs[:48])))
    assert coeff_err <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(8, "monodromy values and product rule", elapsed, 10, f"coeff err {coeff_err:.1e}")


def test_criterion_9_mollifier_smoothness(rng):
    t0 = time.monotonic()
    m = build_mollifier(NSTAR, 0.1, include_origin=True)
    pts = [complex(rng.uniform(-1, 4), rng.uniform(-2, 2)) for _ in range(800)]
    for w in (1.0, 2.0, 3.0):
        for ang in np.linspace(0.0, 2 * math.pi, 34):
            pts.append(w + 0.1 * np.exp(1j * ang))
            pts.append(w + 1.1 * np.exp(1j * ang))
    h = 1e-5
    worst = 0.0
    for z in pts:
        gx, gy = m.gradient(z)
        fx = (m.eval(z + h) - m.eval(z - h)) / (2 * h)
        fy = (m.eval(z + 1j * h) - m.eval(z - 1j * h)) / (2 * h)
        err = max(abs(fx - gx), abs(fy - gy)) / (1.0 + math.hypot(gx, gy))
        worst = max(worst, err)
    assert worst <= 1e-6
    # zero-set characterization on a grid, at tolerance
    xs = np.linspace(-0.5, 3.5, 81)
    ys = np.linspace(-1.0, 1.0, 41)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    vals = m.eval_many(zz)
    hull = np.minimum(np.maximum(NSTAR.distance_many(zz) - 0.1, 0.0), np.abs(zz))
    off_band = np.abs(hull) > 1e-9
    assert np.array_equal(vals[off_band] == 0.0, hull[off_band] <= 1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(9, "cutoff smoothness and zero set", elapsed, 5, f"max FD err {worst:.1e}")
