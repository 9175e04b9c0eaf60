import math

import numpy as np
import pytest

from omegacont import OmegaSet, build_mollifier
from omegacont.errors import OmegaContError


def test_zero_set_on_ray(nstar):
    m = build_mollifier(nstar, 0.1, include_origin=True)
    assert m.eval(1.0) == 0.0
    assert m.eval(1.05) == 0.0
    assert m.eval(1.2) > 0.0
    assert m.eval(0.5 + 10j) == 1.0


def test_origin_included(nstar):
    m = build_mollifier(nstar, 0.1, include_origin=True)
    assert m.eval(0.0) == 0.0
    m2 = build_mollifier(nstar, 0.1, include_origin=False)
    assert m2.eval(0.0) > 0.0


def test_sharp_variant_vanishes_only_on_the_set(nstar):
    m = build_mollifier(nstar, 0.0, include_origin=False)
    assert m.eval(1.0) == 0.0
    assert m.eval(2.0) == 0.0
    for z in (0.5, 1.01, 1.5 + 0.2j, 0.0 + 1e-3j):
        assert m.eval(z) > 0.0


def test_range_bounds(nstar, rng):
    m = build_mollifier(nstar, 0.12, include_origin=True)
    z = rng.uniform(-2, 6, 4000) + 1j * rng.uniform(-3, 3, 4000)
    vals = m.eval_many(z)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_gradient_zero_at_interior_minimum(nstar):
    m = build_mollifier(nstar, 0.1, include_origin=True)
    assert m.gradient(1.0) == (0.0, 0.0)
    assert m.gradient(2.0 + 0.05j) == (0.0, 0.0)


def test_gradient_zero_far_away(nstar):
    m = build_mollifier(nstar, 0.1, include_origin=True)
    assert m.eval(0.5 + 9j) == 1.0
    assert m.gradient(0.5 + 9j) == (0.0, 0.0)


def test_midpoint_probe_regression():
    m = build_mollifier(OmegaSet([2.0]), 0.1, include_origin=True)
    value = m.eval(2.0 + 0.55)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(0.1484283385848997, rel=1e-12)


def test_finite_difference_gradient_including_glue(nstar, rng):
    m = build_mollifier(nstar, 0.1, include_origin=True)
    pts = [complex(rng.uniform(-1, 4), rng.uniform(-2, 2)) for _ in range(700)]
    for w in (1.0, 2.0, 3.0):
        for ang in np.linspace(0.0, 2 * math.pi, 41):
            pts.append(w + 0.1 * np.exp(1j * ang))
            pts.append(w + 1.1 * np.exp(1j * ang))
    for ang in np.linspace(0.0, 2 * math.pi, 23):
        pts.append(np.exp(1j * ang))  # origin-factor glue circle
    h = 1e-5
    worst = 0.0
    for z in pts:
        gx, gy = m.gradient(z)
        fx = (m.eval(z + h) - m.eval(z - h)) / (2 * h)
        fy = (m.eval(z + 1j * h) - m.eval(z - 1j * h)) / (2 * h)
        err = max(abs(fx - gx), abs(fy - gy)) / (1.0 + math.hypot(gx, gy))
        worst = max(worst, err)
    assert worst < 1e-6


def test_zero_set_grid_characterization(nstar):
    m = build_mollifier(nstar, 0.15, include_origin=True)
    xs = np.linspace(-0.5, 3.5, 81)
    ys = np.linspace(-1.0, 1.0, 41)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    vals = m.eval_many(zz)
    dist_hull = np.minimum(np.maximum(nstar.distance_many(zz) - 0.15, 0.0), np.abs(zz))
    off_band = np.abs(dist_hull) > 1e-9  # grid points riding the glue circle
    assert np.array_equal(vals[off_band] == 0.0, dist_hull[off_band] <= 1e-9)
    assert np.all(vals[dist_hull <= 1e-12] <= 1e-20)


def test_epsilon_too_large_rejected():
    with pytest.raises(OmegaContError):
        build_mollifier(OmegaSet([0.0, 0.25]), 0.2, include_origin=False)


def _eta_reference(omega, eps, include_origin, z):
    """Plain-Python product of the ramp over the points near z."""

    def ramp(u):
        u = min(max(u, 0.0), 1.0)
        return u * u * (2.0 + u * (4.0 + u * (-9.0 + 4.0 * u)))

    lo, hi = eps * eps, (1.0 + eps) * (1.0 + eps)
    inv_w = 1.0 / (hi - lo)
    value = 1.0
    for w in omega.enumerate_in_disk(z, 1.0 + eps + 0.5):
        dx, dy = z.real - w.real, z.imag - w.imag
        value *= ramp((dx * dx + dy * dy - lo) * inv_w)
    near_origin = omega.enumerate_in_disk(0j, eps + 0.5)
    if include_origin and all(abs(w) > eps for w in near_origin):
        value *= ramp(z.real * z.real + z.imag * z.imag)
    return value


@pytest.mark.parametrize(
    "family, eps, box",
    [
        ("positive_integers", 0.1, (-2.0, 5.0, -2.0, 2.0)),
        ("positive_integers", 0.0, (-2.0, 5.0, -2.0, 2.0)),
        ("gauss_integers", 0.1, (-3.0, 3.0, -3.0, 3.0)),
        ("two_pi_i_lattice", 0.3, (-2.0, 2.0, -8.0, 8.0)),
    ],
)
@pytest.mark.parametrize("include_origin", [True, False])
def test_eval_many_matches_plain_product(family, eps, box, include_origin, rng):
    omega = getattr(OmegaSet, family)()
    m = build_mollifier(omega, eps, include_origin=include_origin)
    x0, x1, y0, y1 = box
    z = rng.uniform(x0, x1, 300) + 1j * rng.uniform(y0, y1, 300)
    # points on the glue circles of the lattice points and of the origin
    ang = rng.uniform(0.0, 2 * math.pi, 40)
    w = np.array(omega.enumerate_in_disk(0j, 3.0)[:5])
    for r in (eps, 1.0 + eps):
        z = np.concatenate([z, (w[:, None] + r * np.exp(1j * ang)).ravel()])
    z = np.concatenate([z, np.exp(1j * ang)])
    got = m.eval_many(z)
    want = np.array([_eta_reference(omega, eps, include_origin, complex(p)) for p in z])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.any((want > 0.0) & (want < 1.0))
