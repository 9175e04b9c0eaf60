"""Symmetric homotopies of paths built from a non-autonomous vector field.

The field X(z, t) = eta(z) / (eta(z) + eta(gamma(t) - z)) * gamma'(t) fixes
the cutoff's zero set pointwise and drags the endpoint of an initial
symmetric path along gamma.  Flow stages handle the portions of gamma away
from the origin; exact linear stages handle the portions inside a small disk
around 0, alternating along the zero-set segmentation of the path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DenominatorVanishedError,
    HomotopyBuildError,
    HomotopyInvariantError,
)
from .mollifier import Mollifier, build_mollifier
from .omega import OmegaSet
from .paths import PiecewisePath, clearance, segment_around_zeros

__all__ = [
    "HomotopyOptions",
    "SymmetricHomotopy",
    "HomotopyReport",
    "vector_field",
    "flow",
    "build_flow_homotopy",
    "build_linear_homotopy",
    "build_symmetric_homotopy",
    "validate_homotopy",
]


@dataclass(frozen=True)
class HomotopyOptions:
    s_points: int = 257       # odd so the grid is symmetric about 1/2
    t_density: float = 50.0   # t nodes per unit of length(piece)/delta'
    substeps: int = 2         # integrator substeps between t nodes
    sym_tol: float = 1e-6
    end_tol: float = 1e-6
    origin_tol: float = 1e-12
    max_t_points: int = 200_000
    max_s_points: int = 8192  # cap for adaptive profile refinement
    max_refine_rounds: int = 48

    def s_grid(self) -> np.ndarray:
        if self.s_points < 3 or self.s_points % 2 == 0:
            raise ValueError("s_points must be odd and at least 3")
        return np.linspace(0.0, 1.0, self.s_points)


@dataclass
class SymmetricHomotopy:
    """Sampled grid H(s_m, t_i) with clearance metadata.

    ``grid[i, m]`` is the point of the path at time ``t_grid[i]`` and
    profile parameter ``s_grid[m]``; row 0 of every fiber is the origin and
    the last column follows the endpoint path.
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    grid: np.ndarray  # shape (P, M)
    delta_pp: float
    path: PiecewisePath
    zero_in_omega: bool = False

    @property
    def initial_path(self) -> np.ndarray:
        return self.grid[0]

    @property
    def final_path(self) -> np.ndarray:
        return self.grid[-1]

    def fiber(self, index: int = -1) -> np.ndarray:
        return self.grid[index]


@dataclass
class HomotopyReport:
    origin_residual: float
    symmetry_residual: float
    endpoint_residual: float
    min_clearance: float
    clearance_floor: float
    origin_ok: bool
    symmetry_ok: bool
    clearance_ok: bool
    endpoint_ok: bool

    @property
    def ok(self) -> bool:
        return self.origin_ok and self.symmetry_ok and self.clearance_ok and self.endpoint_ok

    def to_dict(self) -> dict:
        return {
            "origin_residual": self.origin_residual,
            "symmetry_residual": self.symmetry_residual,
            "endpoint_residual": self.endpoint_residual,
            "min_clearance": self.min_clearance,
            "clearance_floor": self.clearance_floor,
            "ok": self.ok,
        }


# ----------------------------------------------------------------------
# vector field and flow


def _field_block(m: Mollifier, gpt: complex, gvel: complex, z: np.ndarray, t: float):
    both = m.eval_many(np.concatenate([z, gpt - z]))
    e1 = both[: z.size]
    e2 = both[z.size :]
    den = e1 + e2
    dead = den <= 0.0
    if np.any(dead):
        idx = int(np.argmax(dead))
        zeta = complex(np.ravel(z)[idx]) if z.shape else complex(z)
        raise DenominatorVanishedError(
            f"both {zeta} and {gpt - zeta} lie in the cutoff zero set at t={t:.6g}; "
            "the singular set is not addition stable or the path is illegal",
            zeta=zeta,
            t=t,
        )
    return (e1 / den) * gvel


def vector_field(m: Mollifier, gamma: PiecewisePath, zeta: complex, t: float) -> complex:
    """Value of the deformation field at one point and time."""
    gpt = gamma.eval(t)
    gvel = gamma.derivative(t)
    return complex(_field_block(m, gpt, gvel, np.array([zeta]), t)[0])


def flow(
    m: Mollifier,
    gamma: PiecewisePath,
    zeta0: complex | np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
) -> complex | np.ndarray:
    """Flow map of the field from time t0 to t1 (classical one-step order 4).

    ``zeta0`` is one start or an array of starts; a single start returns a
    complex, an array the array of end points.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    starts = np.asarray(zeta0, dtype=complex)
    z = starts.ravel()
    reach = float(np.max(np.abs(z), initial=0.0))
    m.prepare(0j, reach + gamma.length() + abs(gamma.eval(t0)) + 1.0)
    times, dts = _stage_times(np.linspace(t0, t1, n_steps + 1), 1)
    pts = gamma.eval_many(times)
    vels = gamma.derivative_many(times)
    no_pins = np.zeros(z.size, dtype=bool)
    z = _flow_span(m, z, times, dts, pts, vels, no_pins, no_pins)
    if starts.ndim == 0:
        return complex(z[0])
    return z.reshape(starts.shape)


def _stage_times(t_nodes, substeps):
    """RK4 sample times (start, midpoint, end of every substep) and step sizes."""
    times = np.empty(3 * substeps * (t_nodes.size - 1))
    dts = np.empty(substeps * (t_nodes.size - 1))
    pos = 0
    step = 0
    for i in range(t_nodes.size - 1):
        dt = (t_nodes[i + 1] - t_nodes[i]) / substeps
        for k in range(substeps):
            t0 = t_nodes[i] + k * dt
            times[pos : pos + 3] = (t0, t0 + 0.5 * dt, t0 + dt)
            dts[step] = dt
            pos += 3
            step += 1
    return times, dts


def _flow_span(m, z, times, dts, pts, vels, pin0, pinmid):
    """Classical RK4 steps of sizes ``dts`` from the states ``z``.

    ``times``, ``pts`` and ``vels`` hold three entries per step: the time,
    gamma and gamma' at its start, midpoint and end.  After every step the
    columns in ``pin0`` are reset to 0 and those in ``pinmid`` to gamma/2;
    both are exact trajectories, and pinning them keeps an integrated
    half-grid consistent with its mirror completion.
    """
    for step in range(dts.size):
        dt = dts[step]
        t0, tm, t1 = times[3 * step : 3 * step + 3]
        g0, gm, g1 = pts[3 * step : 3 * step + 3]
        v0, vm, v1 = vels[3 * step : 3 * step + 3]
        k1 = _field_block(m, g0, v0, z, t0)
        k2 = _field_block(m, gm, vm, z + 0.5 * dt * k1, tm)
        k3 = _field_block(m, gm, vm, z + 0.5 * dt * k2, tm)
        k4 = _field_block(m, g1, v1, z + dt * k3, t1)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z[pin0] = 0.0
        z[pinmid] = 0.5 * g1
    return z


def _mirror_rows(lower_rows, endpoint_values):
    """Complete half-grid rows through the symmetry H(1-s) = gamma(t) - H(s).

    Integrating both halves independently is numerically unstable: near the
    origin corridor the discretized field amplifies transverse roundoff
    exponentially.  The exact flow commutes with the conjugation, so the
    upper half carries no extra information.
    """
    p, half = lower_rows.shape
    full = np.empty((p, 2 * half - 1), dtype=complex)
    full[:, :half] = lower_rows
    full[:, half:] = endpoint_values[:, None] - lower_rows[:, half - 2 :: -1]
    return full


def _flow_rows(m, gamma, z0, t_nodes, substeps):
    """Flow the lower half of the profile ``z0`` node by node, then mirror it."""
    half = (z0.size - 1) // 2 + 1
    times, dts = _stage_times(t_nodes, substeps)
    pts = gamma.eval_many(times)
    vels = gamma.derivative_many(times)
    pin0 = np.zeros(half, dtype=bool)
    pinmid = np.zeros(half, dtype=bool)
    pin0[0] = True
    pinmid[-1] = True
    rows = np.empty((t_nodes.size, half), dtype=complex)
    rows[0] = z = z0[:half]
    for i in range(t_nodes.size - 1):
        lo = i * substeps
        hi = (i + 1) * substeps
        z = _flow_span(
            m,
            z,
            times[3 * lo : 3 * hi],
            dts[lo:hi],
            pts[3 * lo : 3 * hi],
            vels[3 * lo : 3 * hi],
            pin0,
            pinmid,
        )
        rows[i + 1] = z
    return _mirror_rows(rows, gamma.eval_many(np.asarray(t_nodes)))


# ----------------------------------------------------------------------
# stage builders


def _check_initial_path(h, s_grid, omega, delta_p, end_value, opts, require_clearance=True):
    h = np.asarray(h, dtype=complex)
    if h.shape != s_grid.shape:
        raise HomotopyBuildError("initial path must be sampled on the s grid")
    if abs(h[0]) > opts.origin_tol:
        raise HomotopyBuildError(f"initial path must start at 0, got {h[0]}")
    sym = float(np.max(np.abs(h[-1] - h - h[::-1])))
    if sym > 10 * opts.sym_tol:
        raise HomotopyBuildError(f"initial path symmetry residual {sym:.3g}")
    if abs(h[-1] - end_value) > 10 * opts.end_tol:
        raise HomotopyBuildError(
            f"initial path ends at {h[-1]}, expected {end_value}"
        )
    if require_clearance:
        dist = omega.distance_many(h[1:])
        worst = float(np.min(dist))
        if worst < delta_p - 1e-6:
            raise HomotopyBuildError(
                f"initial path clearance {worst:.4g} below {delta_p:.4g}"
            )
    return h


def _t_nodes(a, b, count, must_include=None, piece_breaks=None):
    nodes = np.linspace(a, b, count + 1)
    if must_include is not None and a < must_include < b:
        nodes = np.union1d(nodes, [must_include])
    if piece_breaks is not None:
        inner = piece_breaks[(piece_breaks > a + 1e-12) & (piece_breaks < b - 1e-12)]
        if inner.size:
            nodes = np.union1d(nodes, inner)  # steps never straddle a junction
    return nodes


def _stage_node_count(piece_length, delta_p, opts):
    count = int(math.ceil(opts.t_density * max(piece_length, 1e-9) / delta_p))
    count = max(count, 16)
    if count > opts.max_t_points:
        raise HomotopyBuildError(
            f"stage would need {count} t nodes; clearance {delta_p:.3g} too small"
        )
    return count


def build_flow_homotopy(
    gamma_piece: PiecewisePath,
    h,
    omega: OmegaSet,
    delta: float,
    delta_p: float,
    opts: HomotopyOptions = HomotopyOptions(),
    mollifier: Mollifier | None = None,
    must_include: float | None = None,
) -> SymmetricHomotopy:
    """Flow stage: transport the initial symmetric path along the field.

    Requires the piece of the endpoint path to avoid both 0 and the
    delta-hull of the singular set, and ``delta_p < delta / 2``.  The rows
    are the flow images of the initial samples; the final column tracks the
    piece within integrator accuracy.
    """
    a, b = gamma_piece.domain
    if not delta_p < delta / 2.0 + 1e-15:
        raise HomotopyBuildError(f"need delta' < delta/2, got {delta_p} vs {delta}")
    s_grid = opts.s_grid()
    h = _check_initial_path(h, s_grid, omega, delta_p, gamma_piece.eval(a), opts)
    t_probe = np.linspace(a, b, 512)
    probe_pts = gamma_piece.eval_many(t_probe)
    if mollifier is None:
        if float(np.min(np.abs(probe_pts))) <= 0.0:
            raise HomotopyBuildError("flow stage path passes through 0")
        mollifier = build_mollifier(omega, delta_p, include_origin=True)
    reach = float(np.max(np.abs(h))) + gamma_piece.length() + 1.0
    mollifier.prepare(0j, reach + 1.0)
    count = _stage_node_count(gamma_piece.length(), delta_p, opts)
    nodes = _t_nodes(a, b, count, must_include, gamma_piece.piece_breaks())
    rows = _flow_rows(mollifier, gamma_piece, np.asarray(h, dtype=complex), nodes, opts.substeps)
    return SymmetricHomotopy(s_grid, nodes, rows, delta_p, gamma_piece)


def build_linear_homotopy(
    gamma_piece: PiecewisePath,
    h,
    eps: float,
    delta_p: float,
    omega: OmegaSet,
    opts: HomotopyOptions = HomotopyOptions(),
    must_include: float | None = None,
) -> SymmetricHomotopy:
    """Linear stage for a piece confined to the disk of radius eps/2.

    Uses the exact formula H(s, t) = h(s) + s (gamma(t) - gamma(a)); the
    clearance degrades by at most eps, so the stage guarantee is
    delta'' = delta' - eps.
    """
    a, b = gamma_piece.domain
    if not eps < delta_p:
        raise HomotopyBuildError(f"need eps < delta', got {eps} vs {delta_p}")
    s_grid = opts.s_grid()
    h = _check_initial_path(h, s_grid, omega, delta_p, gamma_piece.eval(a), opts)
    t_probe = np.linspace(a, b, 512)
    if float(np.max(np.abs(gamma_piece.eval_many(t_probe)))) > eps / 2.0 + 1e-12:
        raise HomotopyBuildError("linear stage path leaves the eps/2 disk")
    count = max(16, int(math.ceil(opts.t_density * max(gamma_piece.length(), 1e-9) / delta_p)))
    nodes = _t_nodes(a, b, count, must_include, gamma_piece.piece_breaks())
    start = gamma_piece.eval(a)
    offsets = gamma_piece.eval_many(nodes) - start
    rows = h[None, :] + offsets[:, None] * s_grid[None, :]
    return SymmetricHomotopy(s_grid, nodes, rows, delta_p - eps, gamma_piece)


@dataclass
class _StagePlan:
    kind: str  # "flow" or "linear"
    piece: PiecewisePath
    t_nodes: np.ndarray
    substeps: int = 2
    mollifier: Mollifier | None = None


class _ProfileState:
    """Lower-half profile evolved through the stages with insertion.

    Between the trajectories that stay behind and those that follow the
    endpoint path, the exact flow compresses whole arcs of the profile into
    parameter windows far below double resolution, so no fixed initial grid
    can represent the deformed profile.  Whenever two adjacent trajectories
    drift apart beyond the local clearance scale, a new trajectory is seeded
    at their chord midpoint; checks run at every time node, so the chord sag
    at seeding time stays far below the clearance.  Earlier rows backfill
    the new column with the same chord rule, keeping a continuous family.
    """

    def __init__(self, s_vals, start_value, omega, rho, opts):
        self.omega = omega
        self.rho = rho
        self.opts = opts
        self.s = list(np.asarray(s_vals, dtype=float))
        self.z = np.asarray(np.asarray(s_vals) * start_value, dtype=complex)
        self.rows: list[list[complex]] = [list(self.z)]

    @property
    def width(self) -> int:
        return self.z.size

    def pin_masks(self):
        pin0 = np.zeros(self.width, dtype=bool)
        pinmid = np.zeros(self.width, dtype=bool)
        pin0[0] = True
        pinmid[-1] = True
        return pin0, pinmid

    def record(self, endpoint_now):
        self._insert_where_stretched(endpoint_now)
        self.rows.append(list(self.z))

    def _insert_where_stretched(self, endpoint_now):
        for _ in range(self.opts.max_refine_rounds):
            z = self.z
            plen = np.abs(np.diff(z))
            refl = endpoint_now - z
            scale = np.minimum(
                self.omega.distance_many(z), self.omega.distance_many(refl)
            )
            pscale = np.minimum(scale[:-1], scale[1:])
            inside = np.abs(z) <= self.rho / 2.0
            refl_inside = np.abs(refl) <= self.rho / 2.0
            safe = (inside[:-1] & inside[1:]) | (refl_inside[:-1] & refl_inside[1:])
            bad = np.nonzero((plen > 0.45 * pscale) & ~safe)[0]
            if bad.size == 0:
                return
            if self.width + bad.size > self.opts.max_s_points:
                raise HomotopyBuildError(
                    f"profile grew past {self.opts.max_s_points} columns; "
                    "the deformation is too contorted at this resolution"
                )
            mid_z = 0.5 * (z[bad] + z[bad + 1])
            mid_s = [0.5 * (self.s[m] + self.s[m + 1]) for m in bad]
            for offset, m in enumerate(bad):
                p = m + 1 + offset
                self.s.insert(p, mid_s[offset])
                for row in self.rows:
                    row.insert(p, 0.5 * (row[p - 1] + row[p]))
            self.z = np.insert(z, bad + 1, mid_z)
        raise HomotopyBuildError("profile insertion did not settle at a time node")


def _run_flow_stage(state: _ProfileState, plan: _StagePlan):
    m = plan.mollifier
    gamma = plan.piece
    t_nodes = plan.t_nodes
    times, dts = _stage_times(t_nodes, plan.substeps)
    pts = gamma.eval_many(times)
    vels = gamma.derivative_many(times)
    bound = (
        float(np.max(np.abs(state.z), initial=0.0))
        + gamma.length()
        + float(np.max(np.abs(pts)))
        + 1.0
    )
    ws = m._workspace
    if ws is None or ws.radius < bound or abs(ws.center) > 1e-12:
        m.prepare(0j, bound)
    for i in range(t_nodes.size - 1):
        lo = i * plan.substeps
        hi = (i + 1) * plan.substeps
        state.z = _flow_span(
            m,
            state.z,
            times[3 * lo : 3 * hi],
            dts[lo:hi],
            pts[3 * lo : 3 * hi],
            vels[3 * lo : 3 * hi],
            *state.pin_masks(),
        )
        state.record(pts[3 * hi - 1])


def _run_linear_stage(state: _ProfileState, plan: _StagePlan):
    # the stage-start row is retro-filled on insertion, so rebuilding the
    # basis from it keeps the exact formula valid for inserted columns too
    gamma = plan.piece
    t_nodes = plan.t_nodes
    start_row = len(state.rows) - 1
    start = gamma.eval(float(t_nodes[0]))
    gvals = gamma.eval_many(t_nodes)
    for i in range(1, t_nodes.size):
        base = np.asarray(state.rows[start_row], dtype=complex)
        base_s = np.asarray(state.s, dtype=float)
        state.z = base + (gvals[i] - start) * base_s
        state.record(gvals[i])


def _assemble_state(plans, omega, opts, start_value, rho, path, zero_in_omega, delta_pp):
    t_parts = [plans[0].t_nodes]
    for plan in plans[1:]:
        t_parts.append(plan.t_nodes[1:])
    t_all = np.concatenate(t_parts)
    gamma_vals = path.eval_many(t_all)

    mid = (opts.s_points - 1) // 2
    s_lower = np.linspace(0.0, 0.5, mid + 1)
    state = _ProfileState(s_lower, start_value, omega, rho, opts)
    for plan in plans:
        if plan.kind == "flow":
            _run_flow_stage(state, plan)
        else:
            _run_linear_stage(state, plan)
    cols = np.asarray(state.rows, dtype=complex)
    if cols.shape[0] != t_all.size:
        raise HomotopyBuildError("stage rows out of step with the time grid")
    grid = _mirror_rows(cols, gamma_vals)
    s_low = np.asarray(state.s)
    s_full = np.concatenate([s_low, 1.0 - s_low[-2::-1]])
    if delta_pp is None:
        delta_pp = float(np.min(omega.distance_many(grid[:, 1:].ravel())))
    return SymmetricHomotopy(s_full, t_all, grid, delta_pp, path, zero_in_omega)


def build_symmetric_homotopy(
    gamma: PiecewisePath,
    omega: OmegaSet,
    opts: HomotopyOptions = HomotopyOptions(),
    validate: bool = True,
) -> SymmetricHomotopy:
    """Full construction: initial straight segment deformed to follow gamma.

    When 0 belongs to the singular set a single flow stage with the sharp
    cutoff (eps = 0) suffices.  Otherwise the domain is segmented around the
    zeros of gamma and flow stages alternate with exact linear stages, the
    clearance budget shrinking by eps per zero crossed.  The profile grid is
    refined adaptively where trajectories stretch.
    """
    a, b = gamma.domain
    rho = omega.rho()
    start = gamma.eval(a)
    if not 0 < abs(start) < rho:
        raise HomotopyBuildError(
            f"path must start inside the punctured disk of radius {rho:.4g}"
        )
    delta = clearance(gamma, omega)
    if delta <= 0.0:
        raise HomotopyBuildError("path clearance from the singular set is zero")
    min_speed = gamma.min_speed()
    if min_speed <= 1e-12:
        raise HomotopyBuildError("path derivative vanishes somewhere")
    window = 2.0 * float(np.max(np.abs(gamma.eval_many(np.linspace(a, b, 512)))))
    report = omega.is_addition_stable_window(window)
    if not report.stable:
        warnings.warn(
            f"singular set is not addition stable on window {window:.3g}: "
            f"witness {report.witness}; the construction may abort",
            stacklevel=2,
        )
    reach = float(np.max(np.abs(gamma.eval_many(np.linspace(a, b, 512)))))
    reach = reach + gamma.length() + 2.0

    if omega.contains(0j, 1e-12):
        m0 = build_mollifier(omega, 0.0, include_origin=False)
        m0.prepare(0j, reach)
        delta_scale = 0.5 * min(delta / 2.0, rho - abs(start))
        count = _stage_node_count(gamma.length(), delta_scale, opts)
        nodes = _t_nodes(a, b, count, None, gamma.piece_breaks())
        plans = [_StagePlan("flow", gamma, nodes, opts.substeps, m0)]
        out = _assemble_state(plans, omega, opts, start, rho, gamma, True, None)
        return _maybe_validate(out, omega, opts, validate)

    working = gamma
    if abs(gamma.eval(b)) <= 1e-12:
        ext = min(rho, delta) / 4.0
        direction = gamma.derivative(b)
        direction = direction / abs(direction)
        working = gamma.extended_by_segment(
            ext * direction, b + ext / max(gamma.length(), ext)
        )

    gap = omega.min_gap()
    seg = segment_around_zeros(working, omega, delta0_cap=0.45 * gap)
    delta0 = seg.delta0
    if delta0 < 1e-4:
        raise HomotopyBuildError(
            f"clearance budget {delta0:.2e} too small to build a usable grid"
        )
    eps = seg.epsilon

    plans = []
    delta_j = delta0
    for kind, lo, hi in seg.intervals:
        piece = working.restrict(lo, hi)
        include = b if lo < b < hi else None
        if kind == "J":
            if not delta_j < seg.delta / 2.0 + 1e-15:
                raise HomotopyBuildError("stage clearance budget inconsistent")
            count = _stage_node_count(piece.length(), delta_j, opts)
            nodes = _t_nodes(lo, hi, count, include, piece.piece_breaks())
            moll = build_mollifier(omega, delta_j, include_origin=True)
            moll.prepare(0j, reach)
            plans.append(_StagePlan("flow", piece, nodes, opts.substeps, moll))
        else:
            count = max(
                16, int(math.ceil(opts.t_density * max(piece.length(), 1e-9) / delta_j))
            )
            nodes = _t_nodes(lo, hi, count, include, piece.piece_breaks())
            plans.append(_StagePlan("linear", piece, nodes))
            delta_j = delta_j - eps
    delta_pp = delta_j

    out = _assemble_state(plans, omega, opts, start, rho, working, False, delta_pp)
    if working is not gamma:
        keep = out.t_grid <= b + 1e-12
        out = SymmetricHomotopy(
            out.s_grid, out.t_grid[keep], out.grid[keep], out.delta_pp, gamma
        )
        if abs(out.t_grid[-1] - b) > 1e-9:
            raise HomotopyBuildError("extension trim lost the final time node")
    return _maybe_validate(out, omega, opts, validate)


def _maybe_validate(h, omega, opts, validate):
    if not validate:
        return h
    report = validate_homotopy(h, omega, sym_tol=opts.sym_tol, end_tol=opts.end_tol)
    if not report.ok:
        raise HomotopyInvariantError(
            f"constructed grid fails validation: {report.to_dict()}", report=report
        )
    return h


# ----------------------------------------------------------------------
# validation


def validate_homotopy(
    h: SymmetricHomotopy,
    omega: OmegaSet,
    sym_tol: float = 1e-6,
    end_tol: float = 1e-6,
    clearance_floor: float | None = None,
    origin_tol: float = 1e-12,
) -> HomotopyReport:
    """Residuals for the three defining conditions plus endpoint tracking.

    Diagnostics only; never raises.
    """
    grid = h.grid
    origin = float(np.max(np.abs(grid[:, 0])))
    mirrored = grid[:, -1][:, None] - grid[:, ::-1]
    sym = float(np.max(np.abs(mirrored - grid)))
    if clearance_floor is None:
        clearance_floor = 0.5 * h.delta_pp
    dist = omega.distance_many(grid[:, 1:].ravel())
    min_clear = float(np.min(dist))
    endpoint = float(
        np.max(np.abs(grid[:, -1] - h.path.eval_many(np.asarray(h.t_grid))))
    )
    return HomotopyReport(
        origin_residual=origin,
        symmetry_residual=sym,
        endpoint_residual=endpoint,
        min_clearance=min_clear,
        clearance_floor=clearance_floor,
        origin_ok=origin <= origin_tol,
        symmetry_ok=sym <= sym_tol,
        clearance_ok=min_clear >= clearance_floor and min_clear > 0,
        endpoint_ok=endpoint <= end_tol,
    )
