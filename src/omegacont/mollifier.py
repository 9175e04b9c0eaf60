"""C1 cutoff functions vanishing exactly on a prescribed thickened point set.

The mollifier is a product of per-point factors chi(|z - w|^2) over the
singular set, optionally times an origin factor, where chi is a quintic
smoothstep ramp: identically 0 up to eps^2, identically 1 from (1 + eps)^2 on.
Only the finitely many factors not equal to 1 near the query point are ever
multiplied, so evaluation is local and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OmegaContError
from .omega import OmegaSet

__all__ = ["Mollifier", "build_mollifier"]


def _ramp(u, out=None):
    """Monotone C1 ramp on [0, 1] with quadratic inner tangency and a C2
    outer glue: finite differences match the analytic gradient at tight
    tolerances on both glue circles, and the gentle inner growth keeps the
    deformation flow well conditioned near the frozen disks.

    ``out=u`` clips a large argument array in place, which saves a copy."""
    u = np.clip(u, 0.0, 1.0, out=out)
    f = u * u
    f *= 2.0 + u * (4.0 + u * (-9.0 + 4.0 * u))
    return f


def _ramp_derivative(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 4.0 * u * (1.0 - u) ** 2 * (1.0 + 5.0 * u), 0.0)


@dataclass
class _Workspace:
    """Reusable candidate list covering a bounded query region."""

    center: complex
    radius: float
    points: np.ndarray  # singular points within radius + reach


@dataclass
class Mollifier:
    """Cutoff eta: C -> [0, 1] with zero set {0} u closed eps-hull of omega.

    ``epsilon = 0`` selects the variant whose zero set is exactly the point
    set itself (plus the origin when requested).  The origin factor ramps on
    the unit disk and is skipped automatically when the origin already lies
    in the eps-hull.
    """

    omega: OmegaSet
    epsilon: float
    include_origin: bool
    _origin_active: bool = field(init=False)
    _workspace: _Workspace | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.epsilon > 0:
            gap = self.omega.min_gap()
            if not 2.0 * self.epsilon < gap:
                raise OmegaContError(
                    f"epsilon {self.epsilon:.4g} too large: point gap is {gap:.4g}"
                )
        self._origin_active = bool(
            self.include_origin and self.omega.distance(0j) > self.epsilon
        )

    @property
    def reach(self) -> float:
        """Factors are identically 1 beyond this distance from their point."""
        return 1.0 + self.epsilon

    # ------------------------------------------------------------------
    # workspace handling

    def prepare(self, center: complex, radius: float) -> None:
        """Pre-enumerate the singular points relevant to a query region."""
        pts = self.omega.enumerate_in_disk(center, radius + self.reach + 0.5)
        self._workspace = _Workspace(
            complex(center), float(radius), np.array(pts, dtype=complex)
        )

    def _candidates(self, z: np.ndarray) -> np.ndarray:
        ws = self._workspace
        if ws is not None:
            off = np.abs(z - ws.center)
            if float(np.max(off, initial=0.0)) <= ws.radius:
                return ws.points
        center = complex(np.mean(z))
        radius = float(np.max(np.abs(z - center), initial=0.0))
        pts = self.omega.enumerate_in_disk(center, radius + self.reach + 0.5)
        return np.array(pts, dtype=complex)

    # ------------------------------------------------------------------
    # evaluation

    def _factor_args(self, z: np.ndarray):
        """Squared distances to candidate points, ramp width constants."""
        pts = self._candidates(z)
        lo = self.epsilon**2
        hi = (1.0 + self.epsilon) ** 2
        return pts, lo, hi

    def eval_many(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        pts, lo, hi = self._factor_args(z)
        x = z.real
        y = z.imag
        out = np.ones(z.shape, dtype=float)
        if pts.size:
            inv_w = 1.0 / (hi - lo)
            u = (x[..., None] - pts.real) ** 2
            u += (y[..., None] - pts.imag) ** 2
            u -= lo
            u *= inv_w
            out = np.prod(_ramp(u, out=u), axis=-1)
        if self._origin_active:
            out = out * _ramp(x * x + y * y)
        return out

    def eval(self, z: complex) -> float:
        return float(self.eval_many(np.array([z]))[0])

    def gradient(self, z: complex) -> tuple[float, float]:
        """Analytic gradient of eta in real coordinates (d/dx, d/dy)."""
        zz = np.array([z], dtype=complex)
        pts, lo, hi = self._factor_args(zz)
        factors = []
        grads = []
        for w in pts:
            d2 = abs(z - w) ** 2
            u = (d2 - lo) / (hi - lo)
            factors.append(float(_ramp(u)))
            du = float(_ramp_derivative(u)) / (hi - lo)
            grads.append((du * 2.0 * (z.real - w.real), du * 2.0 * (z.imag - w.imag)))
        if self._origin_active:
            d2 = abs(z) ** 2
            factors.append(float(_ramp(d2)))
            du = float(_ramp_derivative(d2))
            grads.append((du * 2.0 * z.real, du * 2.0 * z.imag))
        gx = gy = 0.0
        for i in range(len(factors)):
            rest = 1.0
            for j in range(len(factors)):
                if j != i:
                    rest *= factors[j]
            gx += grads[i][0] * rest
            gy += grads[i][1] * rest
        return gx, gy


def build_mollifier(
    omega: OmegaSet, epsilon: float, include_origin: bool = True
) -> Mollifier:
    """Construct the cutoff with zero set {0} u eps-hull(omega).

    With ``include_origin`` false the zero set is the eps-hull alone, which
    is the right choice when the origin already belongs to the point set.
    """
    return Mollifier(omega, epsilon, include_origin)
