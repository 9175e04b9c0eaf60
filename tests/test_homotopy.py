import numpy as np
import pytest

from omegacont import (
    HomotopyOptions,
    OmegaSet,
    PiecewisePath,
    SymmetricHomotopy,
    build_flow_homotopy,
    build_linear_homotopy,
    build_mollifier,
    build_symmetric_homotopy,
    flow,
    validate_homotopy,
    vector_field,
)
from omegacont.errors import DenominatorVanishedError, HomotopyBuildError
from omegacont.homotopy import _field_block

GAMMA = PiecewisePath.segment(0.5, 0.5 + 2j)


def _mollifier(nstar, eps=0.12):
    m = build_mollifier(nstar, eps, include_origin=True)
    m.prepare(0j, 12.0)
    return m


# ----------------------------------------------------------------------
# vector field identities


def test_field_vanishes_on_the_set(nstar):
    m = _mollifier(nstar)
    for omega_pt in (1.0, 2.0, 3.0):
        assert vector_field(m, GAMMA, omega_pt, 0.3) == 0.0


def test_field_follows_the_path(nstar):
    m = _mollifier(nstar)
    for t in (0.0, 0.4, 0.9):
        x = vector_field(m, GAMMA, GAMMA.eval(t), t)
        assert abs(x - GAMMA.derivative(t)) < 1e-14


def test_field_symmetry_identity(nstar, rng):
    m = _mollifier(nstar)
    worst = 0.0
    for _ in range(10_000):
        z = complex(rng.uniform(-2, 4), rng.uniform(-2, 3))
        t = rng.uniform(0, 1)
        gp, gv = GAMMA.eval(t), GAMMA.derivative(t)
        x1 = complex(_field_block(m, gp, gv, np.array([z]), t)[0])
        x2 = complex(_field_block(m, gp, gv, np.array([gp - z]), t)[0])
        worst = max(worst, abs(x1 + x2 - gv))
    assert worst < 1e-12


def test_denominator_abort_witnesses_instability():
    # {1, 2} is not addition stable: at gamma(t) = 3 both 1 and 3 - 1 = 2
    # sit in the zero set and the field is undefined
    omega = OmegaSet([1.0, 2.0])
    m = build_mollifier(omega, 0.05, include_origin=True)
    m.prepare(0j, 8.0)
    gamma = PiecewisePath.segment(2.8, 3.2)
    with pytest.raises(DenominatorVanishedError):
        vector_field(m, gamma, 1.0, 0.5)


# ----------------------------------------------------------------------
# flow


def test_flow_constant_path_is_identity(nstar):
    m = _mollifier(nstar)
    frozen = PiecewisePath.segment(0.5, 0.5)
    for z0 in (0.3 + 0.2j, -1.0 + 1j):
        assert flow(m, frozen, z0, 0.0, 1.0, 64) == z0


def test_flow_fixes_singular_points(nstar):
    m = _mollifier(nstar)
    assert flow(m, GAMMA, 2.0, 0.0, 1.0, 200) == 2.0


def test_flow_group_law(nstar, rng):
    m = _mollifier(nstar)
    worst = 0.0
    for _ in range(20):
        z0 = complex(rng.uniform(-1, 3), rng.uniform(-1, 2))
        fwd = flow(m, GAMMA, z0, 0.0, 1.0, 300)
        back = flow(m, GAMMA, fwd, 1.0, 0.0, 300)
        worst = max(worst, abs(back - z0))
    assert worst < 1e-7


def test_flow_failure_names_its_time():
    # {1, 2} is not addition stable: the field breaks down where gamma
    # passes near 3 = 1 + 2, and the error must say when that happened
    omega = OmegaSet([1.0, 2.0])
    path = PiecewisePath.polyline([0.3, 0.5 + 0.5j, 3.0 + 0.5j, 3.0 - 0.5j])
    with pytest.raises(DenominatorVanishedError) as info:
        build_symmetric_homotopy(path, omega)
    assert info.value.t > 0
    assert abs(path.eval(info.value.t) - 3.0) < 0.5


def test_flow_symmetry_conjugation(nstar, rng):
    # the mirrored start gamma(0) - z0 flows to gamma(t) - (flow of z0)
    m = _mollifier(nstar)
    start = GAMMA.eval(0.0)
    end = GAMMA.eval(1.0)
    for _ in range(10):
        z0 = complex(rng.uniform(-1, 2), rng.uniform(-0.5, 1.5))
        a = flow(m, GAMMA, z0, 0.0, 1.0, 400)
        b = flow(m, GAMMA, start - z0, 0.0, 1.0, 400)
        assert abs(b - (end - a)) < 1e-6


# ----------------------------------------------------------------------
# stage builders


def test_flow_stage_vertical_segment(nstar):
    opts = HomotopyOptions(s_points=129)
    h = opts.s_grid() * 0.5
    st = build_flow_homotopy(GAMMA, h, nstar, 0.5, 0.12, opts)
    report = validate_homotopy(st, nstar, clearance_floor=0.12)
    assert report.ok
    assert report.min_clearance >= 0.12
    # endpoint row reproduces the path: it is itself a flow trajectory
    end_res = np.max(np.abs(st.grid[:, -1] - GAMMA.eval_many(np.asarray(st.t_grid))))
    assert end_res <= 1e-6


def test_flow_stage_constant_path_fixes_profile(nstar):
    opts = HomotopyOptions(s_points=65)
    h = opts.s_grid() * 0.5
    st = build_flow_homotopy(PiecewisePath.segment(0.5, 0.5), h, nstar, 0.5, 0.1, opts)
    assert np.max(np.abs(st.grid - h[None, :])) == 0.0


def test_linear_stage_exactness(nstar):
    opts = HomotopyOptions(s_points=65)
    eps = 0.08
    piece = PiecewisePath.segment(0.03, 0.02 + 0.01j)
    h = opts.s_grid() * 0.03
    st = build_linear_homotopy(piece, h, eps, 0.2, nstar, opts)
    sym = np.max(np.abs(st.grid[:, -1][:, None] - st.grid[:, ::-1] - st.grid))
    assert sym < 1e-14
    assert st.delta_pp == pytest.approx(0.2 - eps)
    # exact formula
    svals = st.s_grid
    for i, t in enumerate(st.t_grid):
        expected = h + svals * (piece.eval(float(t)) - 0.03)
        assert np.max(np.abs(st.grid[i] - expected)) < 1e-14


def test_linear_stage_constant_piece(nstar):
    opts = HomotopyOptions(s_points=65)
    h = opts.s_grid() * 0.03
    st = build_linear_homotopy(
        PiecewisePath.segment(0.03, 0.03), h, 0.08, 0.2, nstar, opts
    )
    assert np.max(np.abs(st.grid - h[None, :])) == 0.0


def test_linear_stage_requires_confined_piece(nstar):
    opts = HomotopyOptions(s_points=65)
    h = opts.s_grid() * 0.03
    with pytest.raises(HomotopyBuildError):
        build_linear_homotopy(
            PiecewisePath.segment(0.03, 0.4), h, 0.08, 0.2, nstar, opts
        )


# ----------------------------------------------------------------------
# the full construction


def test_build_simple_path_regression(nstar):
    h = build_symmetric_homotopy(GAMMA, nstar)
    report = validate_homotopy(h, nstar)
    assert report.ok
    assert h.delta_pp == pytest.approx(0.12497499749974998, rel=1e-6)
    assert report.min_clearance >= 0.12
    assert report.symmetry_residual < 1e-12
    assert report.endpoint_residual < 1e-12
    # initial path is the prescribed straight segment
    assert np.max(np.abs(h.initial_path - h.s_grid * 0.5)) < 1e-12


def test_build_polyline_over_gaps(nstar):
    path = PiecewisePath.polyline([0.5, 0.5 + 1j, 2.5 + 1j, 2.5 - 0.2j])
    h = build_symmetric_homotopy(path, nstar)
    report = validate_homotopy(h, nstar)
    assert report.ok
    assert h.delta_pp == pytest.approx(0.12494749474947495, rel=1e-4)
    assert report.min_clearance == pytest.approx(0.1926, abs=2e-2)


def test_build_zero_in_set_branch(two_pi_i):
    path = PiecewisePath.polyline([1.0, 1 + 4j, -1 + 4j, -1 + 7j])
    h = build_symmetric_homotopy(path, two_pi_i)
    assert h.zero_in_omega
    report = validate_homotopy(h, two_pi_i)
    assert report.ok
    assert report.min_clearance > 0
    # initial row is the straight segment even in the sharp-cutoff branch
    assert np.max(np.abs(h.initial_path - h.s_grid * 1.0)) < 1e-12


def test_build_crossing_zero(nstar):
    path = PiecewisePath.polyline([0.4, -0.4, -0.4 + 0.6j, 0.6 + 0.6j])
    h = build_symmetric_homotopy(path, nstar)
    report = validate_homotopy(h, nstar)
    assert report.ok
    assert h.delta_pp > 0
    # the grid contains a time column at which the endpoint path sits at 0
    end_mods = np.abs(h.grid[:, -1])
    assert end_mods.min() < 5e-3


def test_build_rejects_zero_clearance(nstar):
    path = PiecewisePath.segment(0.3, 1.0)
    with pytest.raises(HomotopyBuildError):
        build_symmetric_homotopy(path, nstar)


def test_build_rejects_start_outside_disk(nstar):
    path = PiecewisePath.segment(1.5 + 0.5j, 2.5 + 0.5j)
    with pytest.raises(HomotopyBuildError):
        build_symmetric_homotopy(path, nstar)


def test_validate_flags_corrupted_grid(nstar):
    h = build_symmetric_homotopy(GAMMA, nstar)
    grid = h.grid.copy()
    grid[grid.shape[0] // 2, grid.shape[1] // 3] = 1.0  # move one point onto the set
    corrupted = SymmetricHomotopy(h.s_grid, h.t_grid, grid, h.delta_pp, h.path)
    report = validate_homotopy(corrupted, nstar)
    assert not report.clearance_ok
    assert not report.ok


def test_fixed_points_of_transport(nstar):
    m = _mollifier(nstar)
    rows = [np.array([1.0 + 0j, 2.0 + 0j, 0.37 + 0.4j])]
    t_nodes = np.linspace(0, 1, 33)
    for t0, t1 in zip(t_nodes[:-1], t_nodes[1:]):
        rows.append(flow(m, GAMMA, rows[-1], t0, t1, 2))
    rows = np.array(rows)
    assert np.max(np.abs(rows[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(rows[:, 1] - 2.0)) < 1e-12


def test_no_outside_point_lands_inside_the_hull(nstar):
    # injectivity safeguard, tested contrapositively on the built grid
    path = PiecewisePath.polyline([0.5, 0.5 + 1j, 2.5 + 1j, 2.5 - 0.2j])
    h = build_symmetric_homotopy(path, nstar)
    dist = nstar.distance_many(h.grid[:, 1:].ravel())
    assert float(dist.min()) >= h.delta_pp - 1e-9


def test_grid_refinement_stability(nstar):
    path = PiecewisePath.polyline([0.5, 0.5 + 1j, 1.6 + 1j])
    coarse = build_symmetric_homotopy(path, nstar, HomotopyOptions(s_points=65))
    fine = build_symmetric_homotopy(
        path, nstar, HomotopyOptions(s_points=129, substeps=4, t_density=100.0)
    )
    # true trajectories (the original profile parameters) match pointwise
    base_c = np.linspace(0.0, 1.0, 65)
    idx_c = []
    idx_f = []
    for s in base_c:
        jc = int(np.argmin(np.abs(coarse.s_grid - s)))
        jf = int(np.argmin(np.abs(fine.s_grid - s)))
        if abs(coarse.s_grid[jc] - s) < 1e-12 and abs(fine.s_grid[jf] - s) < 1e-12:
            idx_c.append(jc)
            idx_f.append(jf)
    assert len(idx_c) >= 60
    diff = np.abs(coarse.final_path[idx_c] - fine.final_path[idx_f])
    assert float(np.max(diff)) < 1e-5
    # chord-seeded columns have synthetic parameters but must still lie on
    # the refined fiber curve (compare against the densified polyline)
    fiber = fine.final_path
    u = np.linspace(0.0, 1.0, 20)[None, :]
    dense = (fiber[:-1, None] * (1 - u) + fiber[1:, None] * u).ravel()
    for z in coarse.final_path:
        assert float(np.min(np.abs(dense - z))) < 2e-2  # panel-resolution scale


def test_build_warns_when_not_addition_stable():
    # the window must reach the sum 1 + 2 = 3 for the witness to be seen
    omega = OmegaSet([1.0, 2.0])
    path = PiecewisePath.segment(0.3, 0.3 + 1.5j)
    with pytest.warns(UserWarning, match="not addition stable"):
        build_symmetric_homotopy(path, omega)
