import math

import numpy as np

from omegacont import (
    PiecewisePath,
    build_symmetric_homotopy,
    continue_along,
    continue_convolution,
    continue_with_stops,
    convolve_at_origin,
    convolve_entire,
    fiber_convolution_at,
    naive_endpoint_convolution,
    named_germ,
    two_pole_oracle,
)
from omegacont.convolution import _fiber_delta
from omegacont.germs import pole_germ

TARGET = 2.6 + 0.4j


def direct_path():
    return PiecewisePath.polyline([0.3, 0.5 + 0.4j, TARGET])


def loop_path(around=1.0, base=0.3, anchor=0.5 + 0.45j):
    return PiecewisePath.concatenate(
        PiecewisePath.polyline([base, anchor]),
        PiecewisePath.circle(
            around, abs(anchor - around), math.atan2((anchor - around).imag, (anchor - around).real)
        ),
        PiecewisePath.polyline([anchor, base]),
    )


def germ_probe_diff(a, b, offsets=(0.0, 0.04, -0.03j)):
    return max(abs(a.eval(a.center + o) - b.eval(b.center + o)) for o in offsets)


# ----------------------------------------------------------------------
# general transport


def test_trivial_path_reduces_to_origin_convolution(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    chi = continue_convolution(phi, psi, PiecewisePath.segment(0.1, 0.12), nstar)
    base = convolve_at_origin(phi, psi, 64).recenter(0.12)
    assert abs(chi.coeffs[0] - base.coeffs[0]) < 1e-8


def test_direct_path_matches_closed_form(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    chi = continue_convolution(phi, psi, direct_path(), nstar)
    oracle = two_pole_oracle(1.0, 2.0, direct_path())
    assert germ_probe_diff(chi, oracle.chi) < 1e-6


def test_loop_path_matches_closed_form(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    loop = loop_path()
    chi = continue_convolution(phi, psi, loop, nstar)
    oracle = two_pole_oracle(1.0, 2.0, loop)
    assert germ_probe_diff(chi, oracle.chi) < 1e-6


def test_commutativity(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    h = build_symmetric_homotopy(direct_path(), nstar)
    ab = fiber_convolution_at(h, phi, psi, nstar)
    ba = fiber_convolution_at(h, psi, phi, nstar)
    assert germ_probe_diff(ab, ba) < 1e-7


def test_t_independence_of_neighbor_fibers(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    h = build_symmetric_homotopy(direct_path(), nstar)
    i1 = h.t_grid.size - 1
    i0 = h.t_grid.size - 8
    chi1 = fiber_convolution_at(h, phi, psi, nstar, t_index=i1)
    chi0 = fiber_convolution_at(h, phi, psi, nstar, t_index=i0)
    mid = 0.5 * (chi0.center + chi1.center)
    assert abs(chi0.eval(mid) - chi1.eval(mid)) < 1e-6


def test_profile_refinement_stability(nstar):
    from omegacont import HomotopyOptions

    phi, psi = pole_germ(1.0), pole_germ(2.0)
    h1 = build_symmetric_homotopy(direct_path(), nstar, HomotopyOptions(s_points=257))
    h2 = build_symmetric_homotopy(direct_path(), nstar, HomotopyOptions(s_points=513))
    a = fiber_convolution_at(h1, phi, psi, nstar)
    b = fiber_convolution_at(h2, phi, psi, nstar)
    assert abs(a.coeffs[0] - b.coeffs[0]) < 1e-7


def test_closure_under_further_continuation(nstar):
    # outputs are continuable along further short admissible paths
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    chi = continue_convolution(phi, psi, direct_path(), nstar)
    hop = PiecewisePath.segment(chi.center, chi.center + 0.2j)
    moved = continue_along(chi, hop, nstar).final_germ
    longer = PiecewisePath.polyline([0.3, 0.5 + 0.4j, TARGET, TARGET + 0.2j])
    reference = continue_convolution(phi, psi, longer, nstar)
    assert abs(moved.coeffs[0] - reference.coeffs[0]) < 1e-6


def test_fiber_stop_germs_invariants(nstar):
    # both factors continued along the final fiber with a stop at every node
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    h = build_symmetric_homotopy(direct_path(), nstar)
    points = h.final_path
    fiber = PiecewisePath.polyline(points)
    stops = list(fiber.piece_breaks())
    phi_germs = continue_with_stops(phi, fiber, nstar, stops)
    psi_germs = continue_with_stops(psi, fiber, nstar, stops)
    delta = _fiber_delta(points, nstar, min(phi.radius, psi.radius))
    assert len(phi_germs) == points.size
    for germ, point in zip(phi_germs, points):
        assert abs(germ.center - point) <= 1e-9
    for germ in phi_germs[1:]:
        assert germ.radius >= min(delta, nstar.distance(germ.center)) - 1e-9
    # the germs carry the two branches
    k = points.size // 2
    assert abs(phi_germs[k].coeffs[0] - 1.0 / (points[k] - 1.0)) < 1e-9
    assert abs(psi_germs[k].coeffs[0] - 1.0 / (points[k] - 2.0)) < 1e-9


# ----------------------------------------------------------------------
# entire-factor route


def test_entire_route_degenerate_path(nstar):
    phi = pole_germ(1.0)
    one = named_germ("one")
    tiny = PiecewisePath.segment(0.1, 0.1)
    lhs = convolve_entire(one, phi, tiny, nstar)
    rhs = convolve_at_origin(one, phi, 64).recenter(0.1)
    assert abs(lhs.coeffs[0] - rhs.coeffs[0]) < 1e-8


def test_entire_route_primitive_property(nstar):
    # 1 * phi is the primitive of phi vanishing at 0
    phi = named_germ("poly(3,0,-2,1)")
    path = PiecewisePath.polyline([0.2, 0.7 + 0.6j, 1.8 + 0.6j])
    lhs = convolve_entire(named_germ("one"), phi, path, nstar)
    prim = phi.integrate_from_zero()
    assert abs(lhs.coeffs[0] - prim.eval(path.end)) < 1e-8


def test_cross_engine_agreement_on_loop(nstar):
    pole = pole_germ(1.0)
    loop = loop_path()
    h = build_symmetric_homotopy(loop, nstar)
    for literal in ("one", "poly(0,1)", "poly(0,0,0.5)"):
        a_germ = named_germ(literal)
        lhs = convolve_entire(a_germ, pole, loop, nstar)
        rhs = fiber_convolution_at(h, a_germ, pole, nstar)
        assert germ_probe_diff(lhs, rhs) < 1e-6


def test_entire_route_sees_monodromy(nstar):
    # 1 * 1/(z-1) = log branch: the loop adds the full residue turn
    pole = pole_germ(1.0)
    one = named_germ("one")
    lhs = convolve_entire(one, pole, loop_path(), nstar)
    direct = continue_along(named_germ("log1m(1)"), loop_path(), nstar).final_germ
    assert abs(lhs.coeffs[0] - direct.coeffs[0]) < 1e-9


# ----------------------------------------------------------------------
# endpoint-path integral is genuinely different


def test_naive_endpoint_integral_disagrees_on_loop(nstar):
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    loop = loop_path()
    right = continue_convolution(phi, psi, loop, nstar)
    wrong = naive_endpoint_convolution(phi, psi, loop, nstar)
    assert abs(right.coeffs[0] - wrong.coeffs[0]) > 1e-2


def test_naive_endpoint_integral_near_star_origin(nstar):
    # the endpoint-path integral misses the piece between 0 and the path
    # start; it approximates the principal value only for a 0-based path
    # confined to the star region
    phi, psi = pole_germ(1.0), pole_germ(2.0)
    path = PiecewisePath.segment(1e-4, 0.4)
    wrong = naive_endpoint_convolution(phi, psi, path, nstar)
    z = 0.4
    closed = (np.log(1 - z / 1.0) + np.log(1 - z / 2.0)) / (z - 3.0)
    assert abs(wrong.coeffs[0] - closed) < 1e-3


# ----------------------------------------------------------------------
# closed-form oracle behavior


def test_oracle_removability_on_symmetric_path():
    sym_path = PiecewisePath.polyline([0.0, 0.5 + 0.6j, 1.5, 2.5 - 0.6j, 3.0])
    branch = two_pole_oracle(1.0, 2.0, sym_path)
    assert branch.bracket_at_sum is not None
    assert abs(branch.bracket_at_sum) < 1e-8
    assert branch.removable is True


def test_oracle_detour_branch_has_pole():
    detour = PiecewisePath.concatenate(
        PiecewisePath.segment(0.0, 0.8),
        PiecewisePath.arc(1.0, 0.2, math.pi, 2 * math.pi),
        PiecewisePath.segment(1.2, 1.8),
        PiecewisePath.arc(2.0, 0.2, math.pi, 2 * math.pi),
        PiecewisePath.segment(2.2, 3.0),
    )
    branch = two_pole_oracle(1.0, 2.0, detour)
    assert abs(branch.bracket_at_sum - 2j * math.pi) < 1e-6
    assert branch.removable is False
