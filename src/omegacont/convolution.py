"""Analytic continuation of convolution products.

Two routes are provided: the explicit three-integral formula when one factor
is entire, and the general route that transports the convolution integral
over the final fiber of a symmetric homotopy.  Fiber integrals are taken
over the polyline through the sampled fiber with per-panel Gauss rules and
germ recentering; since the integrand is holomorphic along the corridor the
polyline value matches the true fiber value up to germ accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuation import continue_along, continue_with_stops
from .errors import GermDomainError, HomotopyBuildError
from .germs import DEFAULT_ORDER, Germ, beta_convolve_coeffs, convolve_at_origin
from .homotopy import HomotopyOptions, SymmetricHomotopy, build_symmetric_homotopy
from .omega import OmegaSet
from .paths import PiecewisePath

__all__ = [
    "fiber_convolution_at",
    "continue_convolution",
    "convolve_entire",
    "naive_endpoint_convolution",
    "TwoPoleBranch",
    "two_pole_oracle",
]

_GAUSS3_X = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def _gauss_nodes_on_polyline(points, breaks, scales=None, factor=0.15, max_split=256):
    """Gauss-3 nodes along a polyline, panels split to the local feature scale.

    ``scales[m]`` bounds the distance from panel ``m`` to the nearest
    singularity of the integrand; panels much longer than that scale are
    subdivided so the rule resolves the pole.  Returns ascending parameters
    and the matching complex weights (Gauss weight times chord element).
    """
    params = []
    weights = []
    for m in range(len(points) - 1):
        dz = points[m + 1] - points[m]
        if abs(dz) < 1e-15:
            continue
        k = 1
        if scales is not None:
            scale = max(float(scales[m]), 1e-9)
            k = min(max(1, math.ceil(abs(dz) / (factor * scale))), max_split)
        lo, hi = breaks[m], breaks[m + 1]
        width = (hi - lo) / k
        for j in range(k):
            a = lo + j * width
            params.extend(a + _GAUSS3_X * width)
            weights.extend(_GAUSS3_W * (dz / k))
    return np.asarray(params), np.asarray(weights)


def _panel_sum(quad_w, phi_germs, rows):
    """Gauss-panel sum of ``quad_w[i] * phi(node_i) * rows[i]`` over the nodes.

    ``phi_germs[i]`` is the first factor's germ centred at node i, and
    ``rows[i]`` holds the second factor's Taylor coefficients at the
    mirrored point ``end - node_i``.  The terms are added in node order.
    """
    total = np.zeros(rows.shape[1], dtype=complex)
    for w, germ, row in zip(quad_w, phi_germs, rows):
        total += w * germ.coeffs[0] * row
    return total


def _mirrored_rows(phi_germs, psi_germs, end_pt, n_quad, order):
    """Second factor's coefficients at ``end - node_i`` for every node.

    The second factor was continued to the stops ``1 - u`` in ascending
    order, so ``psi_germs[n_quad - 1 - i]`` sits at the mirror point of
    node i up to rounding, and is regenerated exactly there.
    """
    rows = np.zeros((n_quad, order + 1), dtype=complex)
    for i in range(n_quad):
        q = end_pt - phi_germs[i].center
        b = psi_germs[n_quad - 1 - i].regenerated(q).coeffs[: order + 1]
        rows[i, : b.size] = b
    return rows


# ----------------------------------------------------------------------
# fiber machinery


def _fiber_delta(points: np.ndarray, omega: OmegaSet, fallback_radius: float) -> float:
    try:
        rho = omega.rho()
    except ValueError:
        rho = fallback_radius
    mods = np.abs(points)
    outside = mods > rho / 2.0
    if not outside.any():
        return rho / 2.0
    first = int(np.argmax(outside))
    dmin = float(np.min(omega.distance_many(points[first:])))
    return min(rho / 2.0, dmin)


def fiber_convolution_at(
    h: SymmetricHomotopy,
    phi: Germ,
    psi: Germ,
    omega: OmegaSet,
    t_index: int = -1,
    order: int = DEFAULT_ORDER,
) -> Germ:
    """Convolution germ carried by one fiber of the homotopy.

    First term: Gauss panels over the fiber polyline, with the first factor
    evaluated through its continued germs and the second factor's sigma
    series obtained by recentering the mirrored germ cache.  Second term:
    the coefficient formula applied to (continued first factor) and the
    second factor's origin germ.
    """
    points = np.asarray(h.grid[t_index])
    path = PiecewisePath.polyline(points)
    breaks = path.piece_breaks()
    end_pt = complex(points[-1])

    # integrand features sit at the singular set and its reflection
    node_scale = np.minimum(
        omega.distance_many(points), omega.distance_many(end_pt - points)
    )
    panel_scale = np.minimum(node_scale[:-1], node_scale[1:])
    params, quad_w = _gauss_nodes_on_polyline(points, breaks, panel_scale)
    stops_phi = list(params) + [breaks[-1]]
    stops_psi = sorted(1.0 - u for u in params)

    phi_germs = continue_with_stops(phi, path, omega, stops_phi)
    psi_germs = continue_with_stops(psi, path, omega, stops_psi)
    rows = _mirrored_rows(phi_germs, psi_germs, end_pt, params.size, order)
    first = _panel_sum(quad_w, phi_germs, rows)

    end_germ_phi = phi_germs[-1]
    second = beta_convolve_coeffs(end_germ_phi.coeffs, psi.coeffs, order)

    delta = _fiber_delta(points, omega, min(phi.radius, psi.radius))
    radius = min(delta, omega.distance(end_pt))
    radius = max(radius, 1e-9)
    germ = Germ(end_pt, first + second, radius)
    target = h.path.eval(float(h.t_grid[t_index]))
    if abs(target - end_pt) <= 0.4 * radius:
        germ = germ.recenter(target).with_radius(radius)
    return germ


# ----------------------------------------------------------------------
# general product continuation


def _trim_start(path: PiecewisePath, omega: OmegaSet, rho: float) -> PiecewisePath:
    """Advance the start out of the origin while staying inside the safe disk."""
    a, b = path.domain
    target = rho / 4.0
    t = np.linspace(a, b, 8192)
    mods = np.abs(path.eval_many(t))
    beyond = mods >= target
    if not beyond.any():
        raise HomotopyBuildError("path never leaves the origin region")
    first = int(np.argmax(beyond))
    if np.any(mods[: first + 1] > 0.9 * rho):
        raise HomotopyBuildError("path leaves the initial disk before clearing 0")
    return path.restrict(float(t[first]), b)


def continue_convolution(
    phi: Germ,
    psi: Germ,
    gamma: PiecewisePath,
    omega: OmegaSet,
    order: int = DEFAULT_ORDER,
    homotopy: SymmetricHomotopy | None = None,
    homotopy_options: HomotopyOptions = HomotopyOptions(),
) -> Germ:
    """Continue the convolution of two origin germs along a path.

    Builds (or reuses) the symmetric homotopy whose endpoint path is the
    given path, then evaluates the transported integral on the final fiber.
    Paths that stay well inside the common disk of validity short-circuit to
    the origin convolution recentered at the endpoint.
    """
    rho = omega.rho()
    a, b = gamma.domain
    reach = float(np.max(np.abs(gamma.eval_many(np.linspace(a, b, 2048)))))
    safe = min(phi.radius, psi.radius, rho)
    if reach <= 0.35 * safe:
        base = convolve_at_origin(phi, psi, order)
        end = gamma.eval(b)
        germ = base.recenter(end)
        return germ.with_radius(
            max(min(safe - abs(end), omega.distance(end)), 1e-9)
        )
    if homotopy is None:
        work = gamma
        if abs(gamma.eval(a)) <= 1e-12:
            work = _trim_start(gamma, omega, rho)
        elif abs(gamma.eval(a)) >= rho:
            raise HomotopyBuildError(
                "path must start inside the common singularity-free disk"
            )
        homotopy = build_symmetric_homotopy(work, omega, homotopy_options)
    return fiber_convolution_at(homotopy, phi, psi, omega, -1, order)


def naive_endpoint_convolution(
    phi: Germ,
    psi: Germ,
    gamma: PiecewisePath,
    omega: OmegaSet,
    order: int = DEFAULT_ORDER,
    n_panels: int = 512,
) -> Germ:
    """The same integral taken over the endpoint path itself.

    Demonstration only: transporting the convolution integral requires the
    fiber family, and integrating over the endpoint path generally yields a
    different (wrong) germ even when every branch in sight is defined.
    """
    a, b = gamma.domain
    node_params = np.union1d(np.linspace(a, b, n_panels + 1), gamma.piece_breaks())
    points = gamma.eval_many(node_params)
    path = PiecewisePath.polyline(points)
    breaks = path.piece_breaks()
    end_pt = complex(points[-1])

    node_scale = np.minimum(
        omega.distance_many(points), omega.distance_many(end_pt - points)
    )
    panel_scale = np.minimum(node_scale[:-1], node_scale[1:])
    params, quad_w = _gauss_nodes_on_polyline(points, breaks, panel_scale)
    phi_germs = continue_with_stops(phi, path, omega, list(params) + [breaks[-1]])

    # second-factor branches along the reversed difference path
    diff_points = end_pt - points[::-1]
    diff_path = PiecewisePath.polyline(diff_points)
    psi_germs = continue_with_stops(
        psi, diff_path, omega, sorted(1.0 - u for u in params)
    )

    rows = _mirrored_rows(phi_germs, psi_germs, end_pt, params.size, order)
    first = _panel_sum(quad_w, phi_germs, rows)
    second = beta_convolve_coeffs(phi_germs[-1].coeffs, psi.coeffs, order)
    radius = max(omega.distance(end_pt), 1e-9)
    return Germ(end_pt, first + second, radius)


# ----------------------------------------------------------------------
# entire-factor formula


def _scaled_derivative_rows(coeffs: np.ndarray, order: int) -> list[np.ndarray]:
    rows = [np.asarray(coeffs, dtype=complex)]
    for j in range(order):
        prev = rows[-1]
        if prev.size <= 1:
            rows.append(np.zeros(1, dtype=complex))
            continue
        i = np.arange(1, prev.size)
        rows.append(prev[1:] * i / (j + 1.0))
    return rows


def _polyval_rows(rows, z):
    return np.vstack(
        [np.polynomial.polynomial.polyval(z, row) for row in rows]
    )


def convolve_entire(
    a_germ: Germ,
    phi: Germ,
    gamma: PiecewisePath,
    omega: OmegaSet,
    order: int = DEFAULT_ORDER,
    n_panels: int | None = None,
) -> Germ:
    """Continuation of (entire factor * germ) along a path, explicitly.

    Splits the defining integral into the piece from 0 to the path start,
    the piece along the path (with the correct branch of the non-entire
    factor at every node), and the final piece expressed as a series in the
    local variable at the endpoint.
    """
    if abs(a_germ.center) > 1e-12 or abs(phi.center) > 1e-12:
        raise GermDomainError("both factors must be centered at 0")
    a, b = gamma.domain
    zeta0 = gamma.eval(a)
    zeta1 = gamma.eval(b)
    if abs(zeta0) > 0.7 * phi.radius:
        raise GermDomainError("path start outside the germ's safe disk")

    rows = _scaled_derivative_rows(a_germ.coeffs, order)

    # integral from 0 to the path start, inside the disk of the germ
    xg, wg = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    seg_pts = u * zeta0
    phi_vals = phi.eval(seg_pts)
    avals = _polyval_rows(rows, zeta1 - seg_pts)
    term1 = (avals * (phi_vals * w)[None, :]).sum(axis=1) * zeta0

    # integral along the path, over a dense polyline
    if n_panels is None:
        n_panels = max(256, int(64 * math.ceil(gamma.length())))
    node_params = np.union1d(np.linspace(a, b, n_panels + 1), gamma.piece_breaks())
    points = gamma.eval_many(node_params)
    path = PiecewisePath.polyline(points)
    breaks = path.piece_breaks()
    node_scale = omega.distance_many(points)
    panel_scale = np.minimum(node_scale[:-1], node_scale[1:])
    params, quad_w = _gauss_nodes_on_polyline(points, breaks, panel_scale)
    germs = continue_with_stops(phi, path, omega, list(params) + [breaks[-1]])
    centers = np.array([g.center for g in germs[:-1]])
    max_reach = float(np.max(np.abs(zeta1 - centers), initial=abs(zeta1 - zeta0)))
    if max_reach > 0.7 * a_germ.radius:
        raise GermDomainError("entire factor's certified disk does not cover the path")
    avals = _polyval_rows(rows, zeta1 - centers)
    term2 = _panel_sum(quad_w, germs, avals.T)

    # final piece as a series at the endpoint
    cont_phi = germs[-1]
    term3 = beta_convolve_coeffs(a_germ.coeffs, cont_phi.coeffs, order)

    coeffs = term3.copy()
    coeffs[: order + 1] += (term1 + term2)[: order + 1]
    radius = max(min(omega.distance(zeta1), 0.7 * a_germ.radius - max_reach), 1e-9)
    return Germ(zeta1, coeffs, radius)


# ----------------------------------------------------------------------
# closed form for the convolution of two simple poles


@dataclass
class TwoPoleBranch:
    """Branch data for the convolution of 1/(z - w1) with 1/(z - w2).

    The product continues to bracket(z) / (z - w1 - w2) where bracket is the
    sum of the two continued logarithms; the branch has a pole at the sum
    point unless the bracket vanishes there (removable case).
    """

    omega1: complex
    omega2: complex
    germ1: Germ
    germ2: Germ
    bracket: Germ
    chi: Germ | None
    bracket_at_sum: complex | None
    removable: bool | None


def two_pole_oracle(
    omega1: complex,
    omega2: complex,
    gamma: PiecewisePath,
    order: int = DEFAULT_ORDER,
    evaluate_at_sum: bool = True,
    removable_tol: float = 1e-8,
) -> TwoPoleBranch:
    """Continue the closed form of the two-pole convolution along a path.

    Each logarithm is continued with respect to its own singleton singular
    set, so the path may end anywhere off the two poles, including at the
    sum point itself.
    """
    from .germs import named_germ

    w1, w2 = complex(omega1), complex(omega2)
    s = w1 + w2
    set1 = OmegaSet([w1])
    set2 = OmegaSet([w2])
    l1 = named_germ(f"log1m({_fmt(w1)})", order)
    l2 = named_germ(f"log1m({_fmt(w2)})", order)
    g1 = continue_along(l1, gamma, set1).final_germ
    g2 = continue_along(l2, gamma, set2).final_germ
    bracket = g1.add(g2)
    c = bracket.center
    chi = None
    if abs(s - c) > 1e-9:
        inv_pow = np.cumprod(np.full(order + 2, 1.0 / (s - c), dtype=complex))
        pole = Germ(c, -inv_pow[: order + 1], abs(s - c))
        chi = bracket.multiply(pole, order)
    bracket_at_sum = None
    removable = None
    if evaluate_at_sum:
        from .errors import OmegaContError

        try:
            tail = PiecewisePath.segment(c, s)
            v1 = continue_along(g1, tail, set1).final_germ.coeffs[0]
            v2 = continue_along(g2, tail, set2).final_germ.coeffs[0]
            bracket_at_sum = complex(v1 + v2)
            removable = abs(bracket_at_sum) < removable_tol
        except OmegaContError:
            bracket_at_sum = None
    return TwoPoleBranch(w1, w2, g1, g2, bracket, chi, bracket_at_sum, removable)


def _fmt(z: complex) -> str:
    return f"{z.real}+{z.imag}i" if z.imag >= 0 else f"{z.real}-{-z.imag}i"
