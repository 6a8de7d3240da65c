"""Restricted cubic splines of log time, and natural-spline interpolation.

Two unrelated spline jobs share this module. The restricted (natural) cubic
basis parameterizes a flexible log cumulative hazard; the interpolating
natural spline turns a dense grid of values into a piecewise cubic,
integrated exactly. Life expectancy integrates that same spline through a
cached weight vector (estimands); bench/probes.py still times
interp_integrate.
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
    "InterpolatingSpline",
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
    k_min, k_max = basis.boundary_knots
    span = k_max - k_min
    out = np.empty(z.shape + (basis.df,))
    out[..., 0] = 1.0 if derivative else z
    # the boundary terms' powers are the same for every knot
    power = 2 if derivative else 3
    lo = np.maximum(z - k_min, 0.0) ** power
    hi = np.maximum(z - k_max, 0.0) ** power
    for idx, knot in enumerate(basis.interior_knots, start=1):
        lam = (k_max - knot) / span
        mid = np.maximum(z - knot, 0.0)
        if derivative:
            out[..., idx] = 3.0 * (mid**2 - lam * lo - (1.0 - lam) * hi)
        else:
            out[..., idx] = mid**3 - lam * lo - (1.0 - lam) * hi
    return out


def basis_eval(basis: SplineBasis, z) -> np.ndarray:
    """Basis columns at log-time z; output shape is z.shape + (df,)."""
    return _columns(basis, np.asarray(z, dtype=float), derivative=False)


def basis_derivative(basis: SplineBasis, z) -> np.ndarray:
    """d/dz of each basis column at z; same shape as basis_eval."""
    return _columns(basis, np.asarray(z, dtype=float), derivative=True)


class InterpolatingSpline:
    """Natural cubic spline through given points, integrated exactly."""

    def __init__(self, times: np.ndarray, values: np.ndarray):
        # imported here: scipy.interpolate loads scipy.optimize, which no
        # CLI path otherwise needs
        from scipy.interpolate import CubicSpline

        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be one-dimensional and equally long")
        if times.size < 4:
            raise ValueError(f"need at least 4 points, got {times.size}")
        if (np.diff(times) <= 0).any():
            raise ValueError("abscissae must be strictly increasing")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("points must be finite")
        self._spline = CubicSpline(times, values, bc_type="natural")
        self.times = times
        self.values = values

    def __call__(self, t):
        return self._spline(t)

    def integrate(self, a: float, b: float) -> float:
        if not (self.times[0] <= a < b <= self.times[-1]):
            raise DomainError(
                f"[{a}, {b}] must lie within the interpolation range "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        return float(self._spline.integrate(a, b))


def interp_integrate(times, values, a: float, b: float) -> float:
    """Interpolate (times, values) with a natural spline and integrate over [a, b]."""
    return InterpolatingSpline(times, values).integrate(a, b)
