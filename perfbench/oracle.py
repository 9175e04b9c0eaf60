"""Reference values computed without the package under test.

Everything here is plain numpy on the benchmark's own path descriptions,
so it shares no code with ``omegacont.continuation``, ``convolution`` or
``homotopy``.  A logarithm branch is continued by sampling the path
densely and unwrapping the argument of ``1 - z/w``; the closed forms then
give the two-pole convolution, the entire-factor convolution and the log
monodromy.

A path description is a list of pieces, each either
``("segment", start, end)`` or ``("arc", center, radius, from_angle,
to_angle)``, with complex points.
"""

from __future__ import annotations

import math

import numpy as np

MIN_SAMPLES = 200_000


def piece_point(piece, u):
    """Points of one piece at local parameters ``u`` in [0, 1]."""
    if piece[0] == "segment":
        _, a, b = piece
        return a + (b - a) * u
    _, c, r, th0, th1 = piece
    return c + r * np.exp(1j * (th0 + (th1 - th0) * u))


def piece_length(piece) -> float:
    if piece[0] == "segment":
        return abs(piece[2] - piece[1])
    _, _, r, th0, th1 = piece
    return abs(r * (th1 - th0))


def sample(pieces, n: int = MIN_SAMPLES) -> np.ndarray:
    """At least ``n`` points along the pieces, spread by length."""
    lengths = [max(piece_length(p), 1e-12) for p in pieces]
    total = sum(lengths)
    parts = []
    for k, (piece, length) in enumerate(zip(pieces, lengths)):
        m = max(1000, math.ceil(n * length / total))
        u = np.linspace(0.0, 1.0, m + 1)
        parts.append(piece_point(piece, u if k == 0 else u[1:]))
    return np.concatenate(parts)


def end_point(pieces) -> complex:
    return complex(piece_point(pieces[-1], np.array([1.0]))[0])


def log1m(pieces, w: complex) -> complex:
    """log(1 - z/w) continued along the pieces from the principal branch."""
    u = 1.0 - sample(pieces) / w
    arg = np.unwrap(np.angle(u))
    return complex(math.log(abs(u[-1])), arg[-1])


def with_offset(pieces, offset: complex):
    """The pieces followed by the segment from their end to end + offset."""
    if offset == 0:
        return list(pieces)
    end = end_point(pieces)
    return list(pieces) + [("segment", end, end + offset)]


def two_pole(pieces, w1: complex, w2: complex, offset: complex = 0j) -> complex:
    """Convolution of 1/(z - w1) with 1/(z - w2), continued along the pieces.

    It equals (L1 + L2) / (z - w1 - w2) with Lk = log(1 - z/wk).
    """
    route = with_offset(pieces, offset)
    z = end_point(route)
    return (log1m(route, w1) + log1m(route, w2)) / (z - w1 - w2)


def entire_times_pole(pieces, offset: complex = 0j) -> complex:
    """Convolution of z with 1/(z - 1): (z - 1) log(1 - z) - z."""
    route = with_offset(pieces, offset)
    z = end_point(route)
    return (z - 1.0) * log1m(route, 1.0) - z


def log_monodromy(loop_pieces, w: complex) -> complex:
    """Change of log(1 - z/w) around a closed loop: i times the argument gain."""
    u = 1.0 - sample(loop_pieces) / w
    arg = np.unwrap(np.angle(u))
    return 1j * (arg[-1] - arg[0])


def winding(closed: np.ndarray, p: complex) -> float:
    """Winding number of a densely sampled closed curve around ``p``."""
    rel = closed - p
    return float(np.sum(np.angle(rel[1:] / rel[:-1]))) / (2.0 * math.pi)


# ----------------------------------------------------------------------
# distances to the three singular sets, by closed form


def distance(kind: str, z: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the named singular set."""
    z = np.asarray(z, dtype=complex)
    if kind == "nstar":  # 1, 2, 3, ...
        k = np.maximum(np.rint(z.real), 1.0)
        return np.abs(z - k)
    if kind == "two_pi_i":  # 2 pi i n for every integer n
        n = np.rint(z.imag / (2.0 * math.pi))
        return np.abs(z - 2j * math.pi * n)
    if kind == "gauss":  # m + n i for all integers m, n
        return np.abs(z - (np.rint(z.real) + 1j * np.rint(z.imag)))
    if kind == "one":  # the single point 1
        return np.abs(z - 1.0)
    raise ValueError(f"unknown singular set {kind!r}")


def points_near(kind: str, radius: float) -> np.ndarray:
    """The points of the named set within ``radius`` of the origin."""
    r = int(math.ceil(radius)) + 1
    if kind == "nstar":
        pts = np.arange(1, r + 1, dtype=complex)
    elif kind == "two_pi_i":
        n = np.arange(-r, r + 1)
        pts = 2j * math.pi * n
    elif kind == "gauss":
        m, n = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
        pts = (m + 1j * n).ravel().astype(complex)
    elif kind == "one":
        pts = np.array([1.0 + 0j])
    else:
        raise ValueError(f"unknown singular set {kind!r}")
    return pts[np.abs(pts) <= radius]
