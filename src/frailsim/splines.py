"""Restricted cubic splines of log time, and the natural-spline integral.

Two unrelated spline jobs share this module. The restricted (natural) cubic
basis parameterizes a flexible log cumulative hazard. The natural cubic
spline through values on a grid integrates exactly to a weighted sum of the
values, with weights from one tridiagonal solve on the grid's abscissae
(natural_spline_weights); interp_integrate applies them to one set of
values. Life expectancy no longer uses them (estimands integrates by a
Gauss-Legendre rule), so only the benchmark's probe calls interp_integrate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, FitSetupError

__all__ = [
    "SplineBasis",
    "place_knots",
    "basis_eval",
    "basis_derivative",
    "natural_spline_weights",
    "interp_integrate",
]

ALLOWED_DF = (3, 5, 9)


@dataclass(frozen=True)
class SplineBasis:
    """Knot layout of a restricted cubic basis on the log-time scale."""

    interior_knots: np.ndarray
    boundary_knots: tuple[float, float]

    def __post_init__(self):
        interior = np.asarray(self.interior_knots, dtype=float)
        interior.setflags(write=False)
        object.__setattr__(self, "interior_knots", interior)
        lo, hi = self.boundary_knots
        if not lo < hi:
            raise ValueError(f"boundary knots must be increasing, got {self.boundary_knots}")
        if interior.size:
            if (np.diff(interior) <= 0).any():
                raise ValueError("interior knots must be strictly increasing")
            if not (lo < interior[0] and interior[-1] < hi):
                raise ValueError("interior knots must lie strictly inside the boundary knots")

    @property
    def df(self) -> int:
        return self.interior_knots.size + 1


def place_knots(log_event_times: np.ndarray, df: int) -> SplineBasis:
    """Boundary knots at the extremes and df-1 interior knots at even centiles.

    Centiles are computed on the deduplicated log event times with the usual
    linear-interpolation (type 7) definition.
    """
    if df not in ALLOWED_DF:
        raise ValueError(f"df must be one of {ALLOWED_DF}, got {df}")
    values = np.unique(np.asarray(log_event_times, dtype=float))
    if not np.isfinite(values).all():
        raise FitSetupError("log event times must be finite")
    if values.size < df + 1:
        raise FitSetupError(
            f"need at least {df + 1} distinct event times for df={df}, got {values.size}"
        )
    probs = np.arange(1, df) / df
    interior = np.quantile(values, probs, method="linear")
    return SplineBasis(interior_knots=interior, boundary_knots=(values[0], values[-1]))


def _columns(basis: SplineBasis, z: np.ndarray, derivative: bool) -> np.ndarray:
    """The basis columns (or their derivatives) at z as rows: shape (df,) +
    z.shape, each row contiguous."""
    k_min, k_max = basis.boundary_knots
    span = k_max - k_min
    out = np.empty((basis.df,) + z.shape)
    out[0] = 1.0 if derivative else z

    def power(base: np.ndarray) -> np.ndarray:
        """max(base, 0) to the power 2 (derivative) or 3, by products."""
        pos = np.maximum(base, 0.0)
        square = pos * pos
        return square if derivative else square * pos

    # the boundary terms' powers are the same for every knot
    lo = power(z - k_min)
    hi = power(z - k_max)
    for idx, knot in enumerate(basis.interior_knots, start=1):
        lam = (k_max - knot) / span
        row = power(z - knot) - lam * lo - (1.0 - lam) * hi
        out[idx] = 3.0 * row if derivative else row
    return out


def basis_eval(basis: SplineBasis, z) -> np.ndarray:
    """Basis columns at log-time z; output shape is z.shape + (df,)."""
    return np.ascontiguousarray(
        np.moveaxis(_columns(basis, np.asarray(z, dtype=float), derivative=False), 0, -1))


def basis_derivative(basis: SplineBasis, z) -> np.ndarray:
    """d/dz of each basis column at z; same shape as basis_eval."""
    return np.ascontiguousarray(
        np.moveaxis(_columns(basis, np.asarray(z, dtype=float), derivative=True), 0, -1))


def natural_spline_weights(times) -> np.ndarray:
    """Weights w such that w @ values is the integral over [times[0],
    times[-1]] of the natural cubic spline through (times, values).

    On each interval of width h the spline integrates to h (S_i + S_i+1) / 2
    minus h^3 (M_i + M_i+1) / 24, with M its second derivatives, zero at both
    ends and A M = R S inside (A tridiagonal and symmetric, R the second
    divided differences). So w is the trapezoid weights minus R' z, where
    A z = c and c_i = (h_i-1^3 + h_i^3) / 24: one tridiagonal solve. A is
    strictly diagonally dominant, so elimination without pivoting (the
    Thomas algorithm) is stable; it takes LAPACK gtsv's steps in gtsv's
    order.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 4:
        raise DomainError(f"need at least 4 abscissae in one dimension, "
                          f"got shape {times.shape}")
    if not np.isfinite(times).all():
        raise DomainError("abscissae must be finite")
    h = np.diff(times)
    if not (h > 0).all():
        raise DomainError("abscissae must be strictly increasing")
    off = (h[1:-1] / 6.0).tolist()
    diag = ((h[:-1] + h[1:]) / 3.0).tolist()
    # z[k + 1] is the k-th unknown; off[k] couples it with the next
    z = [0.0, *((h[:-1] ** 3 + h[1:] ** 3) / 24.0).tolist(), 0.0]
    n = len(diag)
    for k in range(1, n):
        fact = off[k - 1] / diag[k - 1]
        diag[k] -= fact * off[k - 1]
        z[k + 1] -= fact * z[k]
    z[n] /= diag[n - 1]
    for k in range(n - 2, -1, -1):
        z[k + 1] = (z[k + 1] - off[k] * z[k + 2]) / diag[k]
    z = np.array(z)
    slope = np.concatenate(([0.0], np.diff(z) / h, [0.0]))
    trapezoid = 0.5 * (np.concatenate(([0.0], h)) + np.concatenate((h, [0.0])))
    return trapezoid - np.diff(slope)


def interp_integrate(times, values, a: float, b: float) -> float:
    """Integrate the natural cubic spline through (times, values) over [a, b],
    which must be the whole range [times[0], times[-1]]."""
    times = np.asarray(times, dtype=float)
    weights = natural_spline_weights(times)
    values = np.asarray(values, dtype=float)
    if values.shape != weights.shape:
        raise DomainError("times and values must be equally long")
    if not np.isfinite(values).all():
        raise DomainError("values must be finite")
    if not (a == times[0] and b == times[-1]):
        raise DomainError(f"[{a}, {b}] must be the interpolation range "
                          f"[{times[0]}, {times[-1]}]")
    return float(weights @ values)
