"""Independent oracles the tests check the package against.

tanh_sinh integrates a function on a finite interval to high accuracy,
for closed forms that have none; cluster_rng is one cluster's own random
stream, as a generator per cluster, against which the re-keyed generator
of generate_dataset is checked; conditional_pieces evaluates a model's
hazard and cumulative hazard from its natural parameters with the hazards
classes and the raw spline basis, and marginal_model averages that
cumulative hazard over the frailty, against which the likelihood's own
log-scale rows and lle_functional are checked.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from frailsim.estimands import MarginalModel
from frailsim.exceptions import DomainError, QuadratureError
from frailsim.fitting import ModelParams, ModelSpec
from frailsim.hazards import Exponential, FrailtySpec, Gompertz, Weibull
from frailsim.simulate import _cluster_keys
from frailsim.splines import basis_derivative, basis_eval


def cluster_rng(seed: int, scenario_id: str, cluster_index: int) -> np.random.Generator:
    """The dedicated random stream of one cluster of one dataset."""
    key = _cluster_keys(seed, scenario_id, [cluster_index])[0]
    return np.random.Generator(np.random.Philox(key=key))


_BASELINES = {"exp": Exponential, "wei": Weibull, "gom": Gompertz}


def conditional_pieces(spec: ModelSpec, params: ModelParams, t, x):
    """Conditional (frailty = 1) hazard and cumulative hazard at (t, x).

    The exp, wei and gom baselines are the hazards classes built from
    params.baseline, times exp(x beta); a rate or shape that is not positive
    and finite raises the class's ValueError. For the rp baseline the
    returned hazard carries the sign of the spline slope, so a nonpositive
    slope shows up as h <= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr <= 0).any():
        raise DomainError("times must be positive")
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), t_arr.shape)
    xb = x_arr * params.beta
    if spec.baseline == "rp":
        z = np.log(t_arr)
        coef = params.baseline[1:]
        s = params.baseline[0] + basis_eval(params.basis, z) @ coef
        sp = basis_derivative(params.basis, z) @ coef
        H = np.exp(s + xb)
        h = sp * H / t_arr
    else:
        baseline = _BASELINES[spec.baseline](*params.baseline)
        ratio = np.exp(xb)
        h = baseline.hazard(t_arr) * ratio
        H = baseline.cumulative_hazard(t_arr) * ratio
    if scalar:
        return float(h[0]), float(H[0])
    return h, H


def marginal_model(params: ModelParams) -> MarginalModel:
    """The MarginalModel of natural-scale parameters: conditional_pieces'
    cumulative hazard, 0 at t = 0, under the spec's frailty."""
    def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
        positive = t > 0
        out = np.zeros_like(t)
        if positive.any():
            out[positive] = conditional_pieces(params.spec, params, t[positive], x)[1]
        return out

    return MarginalModel(
        frailty=FrailtySpec(params.spec.frailty, params.frailty_var),
        cumulative_hazard=cumhaz,
        gh_nodes=params.spec.gh_nodes,
    )


_T_MAX = 4.0
_MAX_LEVEL = 12


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Integrate f over the finite interval [a, b] by tanh-sinh quadrature.

    The trapezoid step is halved (one level per halving, cap 12) until two
    successive estimates agree to tol * (1 + |estimate|). Abscissae are formed
    as offsets from the endpoints, so integrable endpoint singularities are
    handled without evaluating f at a or b themselves.

    The stop rule can pass before any node lands on a narrow peak inside a
    wide interval, and the estimate is then wrong without an error: at tol
    1e-14, a log-Normal mixture density times exp(-e^eta H) over mean +- 12
    sd read 1e-7 off. Split the interval at the peak and integrate the
    pieces apart.
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got [{a}, {b}]")
    if not a < b:
        raise DomainError(f"integration limits must satisfy a < b, got [{a}, {b}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def eval_nodes(x: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            vals = np.broadcast_to(vals, x.shape).astype(float)
        if not np.isfinite(vals).all():
            bad = x[~np.isfinite(vals)]
            raise QuadratureError(
                f"integrand returned a non-finite value at x={bad[0]!r}"
            )
        return vals

    # running sum of w(t) * f(x(t)) over all abscissae seen so far
    weighted_sum = 0.5 * np.pi * eval_nodes(np.array([mid]))[0]
    estimate = None
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        if level == 0:
            j = np.arange(1, int(_T_MAX / h) + 1)
        else:
            j = np.arange(1, int(_T_MAX / h) + 1, 2)
        t = j * h
        w = 0.5 * np.pi * np.sinh(t)
        # 1 - tanh(w) without cancellation
        delta = 2.0 / (np.expm1(2.0 * w) + 2.0)
        dxdt = 0.5 * np.pi * np.cosh(t) / np.cosh(w) ** 2
        x_lo = a + half * delta
        x_hi = b - half * delta
        keep_lo = x_lo > a
        keep_hi = x_hi < b
        if keep_lo.any():
            weighted_sum += np.sum(dxdt[keep_lo] * eval_nodes(x_lo[keep_lo]))
        if keep_hi.any():
            weighted_sum += np.sum(dxdt[keep_hi] * eval_nodes(x_hi[keep_hi]))
        new_estimate = half * h * weighted_sum
        if estimate is not None and abs(new_estimate - estimate) <= tol * (1.0 + abs(new_estimate)):
            return float(new_estimate)
        estimate = new_estimate
    raise QuadratureError(
        f"tanh-sinh did not converge to tol={tol} within {_MAX_LEVEL} levels on [{a}, {b}]"
    )
