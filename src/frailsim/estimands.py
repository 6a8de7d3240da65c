"""Population-level estimands: marginal survival, life expectancy, LLE.

A MarginalModel couples a conditional cumulative hazard with a frailty
distribution; integrating the frailty out gives marginal survival, and
integrating that over time gives restricted life expectancy. The loss in
life expectancy (LLE) is LE(treated) minus LE(untreated): the years the
untreated arm loses over the horizon, positive when beta < 0.

The time integral is that of the natural cubic spline through marginal
survival on a fixed grid, which is a linear functional of the grid values:
one weight vector per grid size. For a fitted model, lle_functional
evaluates the LLE and its gradient on the optimizer scale in one pass over
that grid with the likelihood's own cluster kernels, and delta_method_se
turns such a gradient into a standard error.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import DomainError, EstimandError, QuadratureError
from .fitting import (
    FitResult,
    ModelParams,
    _cluster_terms,
    _grid_prepared,
    _log_h_and_H,
    conditional_pieces,
)
from .hazards import FrailtyFamily, FrailtySpec, gamma_marginal_survival
from .quadrature import adaptive_gh_batch, gh_rule, lognormal_laplace
from .simulate import Scenario

__all__ = [
    "Z95",
    "EstimandName",
    "EstimandResult",
    "MarginalModel",
    "marginal_survival",
    "life_expectancy",
    "lle",
    "delta_method_se",
    "lle_functional",
    "true_estimands",
]

Z95 = 1.959964

DEFAULT_GRID = 1000
TRUTH_GRID = 4000
TRUTH_GH_NODES = 63
# elements in one (nodes, block) quadrature temporary, 256 KB of doubles:
# of budgets from 4k to 128k elements, 32k gave the fastest truths on a host
# with 2 MB of L2 cache per core
_BLOCK_ELEMENTS = 32768


class EstimandName(str, Enum):
    LOG_HR = "LogHR"
    HR = "HR"
    LLE = "LLE"
    FRAILTY_VAR = "FrailtyVar"


@dataclass(frozen=True)
class EstimandResult:
    """A point estimate with its standard error and 95% Wald interval.

    The interval is formed on the estimation scale. A hazard ratio is
    derived from a LogHR result via hazard_ratio(), which exponentiates
    the log-scale bounds instead of building a symmetric interval.
    """

    name: EstimandName
    estimate: float
    se: float
    ci_override: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.se >= 0:
            raise ValueError(f"se must be nonnegative, got {self.se}")

    @property
    def ci(self) -> tuple[float, float]:
        if self.ci_override is not None:
            return self.ci_override
        return (self.estimate - Z95 * self.se, self.estimate + Z95 * self.se)

    def hazard_ratio(self) -> "EstimandResult":
        if self.name is not EstimandName.LOG_HR:
            raise ValueError("hazard_ratio applies to a LogHR result")
        lo, hi = self.ci
        hr = float(np.exp(self.estimate))
        return EstimandResult(
            name=EstimandName.HR,
            estimate=hr,
            se=hr * self.se,
            ci_override=(float(np.exp(lo)), float(np.exp(hi))),
        )


@dataclass(frozen=True)
class MarginalModel:
    """A conditional cumulative hazard plus the frailty law to average over."""

    frailty: FrailtySpec
    conditional_cumhaz: Callable[[np.ndarray, float], np.ndarray]
    gh_nodes: int = 15

    @classmethod
    def from_scenario(cls, scenario: Scenario, gh_nodes: int = TRUTH_GH_NODES) -> MarginalModel:
        def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
            return scenario.baseline.cumulative_hazard(t) * np.exp(x * scenario.beta)

        return cls(frailty=scenario.frailty, conditional_cumhaz=cumhaz, gh_nodes=gh_nodes)

    @classmethod
    def from_params(cls, params: ModelParams, gh_nodes: int | None = None) -> MarginalModel:
        def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
            positive = t > 0
            out = np.zeros_like(t)
            if positive.any():
                _, H = conditional_pieces(params.spec, params, t[positive], x)
                out[positive] = H
            return out

        return cls(
            frailty=FrailtySpec(params.spec.frailty, params.frailty_var),
            conditional_cumhaz=cumhaz,
            gh_nodes=gh_nodes if gh_nodes is not None else params.spec.gh_nodes,
        )

    @classmethod
    def from_fit(cls, result: FitResult, gh_nodes: int | None = None) -> MarginalModel:
        return cls.from_params(result.params, gh_nodes=gh_nodes)

    def cumulative_hazard(self, t: np.ndarray, x: float) -> np.ndarray:
        return self.conditional_cumhaz(t, x)


def _lognormal_marginal(H: np.ndarray, variance: float, mean: float, nodes: int) -> np.ndarray:
    """Survival averaged over a log-Normal frailty with log-mean mean, at
    each cumulative hazard in H, by adaptive Gauss-Hermite quadrature.

    The quadrature runs on column blocks of at most _BLOCK_ELEMENTS // nodes
    values of H, so that each (nodes, block) temporary, 256 KB, stays within
    one core's L2 cache; on the whole (63, 3999) grid of a truth every
    temporary is 2 MB and each pass streams from L3. Every column is
    computed by the same operations in the same order as on the whole
    batch, so the result does not depend on the block size. The Laplace
    points are one value per column, computed once for the whole grid:
    per block, the fixed cost of a Wright omega call would repeat.
    """
    rule = gh_rule(nodes)
    const = -0.5 * np.log(2.0 * np.pi * variance)
    mode, curv = lognormal_laplace(0.0, H, mean, variance)
    S = np.empty(H.size)
    block = max(1, _BLOCK_ELEMENTS // nodes)
    for start in range(0, H.size, block):
        H_block = H[start:start + block]

        def log_f(eta: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.exp(eta)
                out *= H_block
                np.negative(out, out=out)
                sq = eta - mean
                np.square(sq, out=sq)
                sq /= 2.0 * variance
                out -= sq
                out += const
                return out

        laplace = mode[start:start + block], curv[start:start + block]
        S[start:start + block] = adaptive_gh_batch(log_f, rule, laplace)[0]
    np.exp(S, out=S)
    if not np.isfinite(S).all():
        raise QuadratureError("log-Normal marginal survival is not finite "
                              f"at cumulative hazard {H[~np.isfinite(S)][:3]!r}")
    return S


def marginal_survival(model: MarginalModel, t, x) -> np.ndarray | float:
    """Frailty-averaged survival probability at time(s) t for arm x."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr < 0).any():
        raise DomainError("times must be nonnegative")
    H = np.asarray(model.cumulative_hazard(t_arr, float(x)), dtype=float)
    family = model.frailty.family
    variance = model.frailty.variance
    if family is FrailtyFamily.GAMMA:
        S = np.atleast_1d(np.asarray(gamma_marginal_survival(H, variance), dtype=float))
    elif family is FrailtyFamily.LOG_NORMAL:
        S = _lognormal_marginal(H, variance, 0.0, model.gh_nodes)
    else:
        S = np.zeros_like(H)
        for prob, mean in zip(model.frailty.mixture_probs, model.frailty.mixture_means):
            S += prob * _lognormal_marginal(H, variance, mean, model.gh_nodes)
    S = np.clip(S, 0.0, 1.0)
    S = np.where(H == 0.0, 1.0, S)
    return float(S[0]) if scalar else S


@functools.lru_cache(maxsize=None)
def _spline_weights(n_grid: int) -> np.ndarray:
    """Weights w such that the integral over [0, 1] of the natural cubic
    spline through (u_i^2, S_i), u uniform on [0, 1] with n_grid points,
    is w @ S. On the grid horizon * u^2 the weights are horizon * w.

    On each interval the spline integrates to h (S_i + S_i+1) / 2 minus
    h^3 (M_i + M_i+1) / 24, with M its second derivatives, zero at both
    ends and A M = R S inside (A tridiagonal and symmetric, R the second
    divided differences). So w is the trapezoid weights minus R' z, where
    A z = c and c_i = (h_i-1^3 + h_i^3) / 24: one tridiagonal solve. A is
    strictly diagonally dominant, so elimination without pivoting (the
    Thomas algorithm) is stable; it takes LAPACK gtsv's steps in gtsv's
    order.
    """
    if n_grid < 4:
        raise DomainError(f"need at least 4 grid points, got {n_grid}")
    h = np.diff(np.linspace(0.0, 1.0, n_grid) ** 2)
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
    w = trapezoid - np.diff(slope)
    w.setflags(write=False)
    return w


def life_expectancy(
    model: MarginalModel,
    x,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> float:
    """Restricted mean survival over [0, horizon] for arm x.

    Marginal survival is evaluated on an n_grid-point grid including both
    endpoints, interpolated with a natural spline, and the spline is
    integrated exactly (as horizon times a fixed weight vector applied to
    the grid values). The grid is quadratically graded toward zero
    (t_i proportional to i^2) because high-variance frailty mixtures put
    non-trivial mass on near-immediate events; a uniform grid cannot
    resolve that initial drop at any practical size.
    """
    if not horizon > 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    w = _spline_weights(n_grid)
    S = marginal_survival(model, horizon * np.linspace(0.0, 1.0, n_grid) ** 2, x)
    if not np.isfinite(S).all():
        raise QuadratureError(f"marginal survival is not finite on the grid: "
                              f"{S[~np.isfinite(S)][:3]!r}")
    return horizon * float(w @ S)


def lle(
    model: MarginalModel,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> float:
    """Loss in life expectancy: LE(x=1) minus LE(x=0).

    Positive when treatment (x=1) is protective, i.e. the years the
    untreated arm loses relative to the treated arm over the horizon.
    """
    return (life_expectancy(model, 1, horizon, n_grid)
            - life_expectancy(model, 0, horizon, n_grid))


def delta_method_se(result: FitResult, gradient: np.ndarray) -> float:
    """Delta-method SE sqrt(g' cov g) of a functional of the optimizer-scale
    parameters, where g is the functional's gradient at result.trans and cov
    is the fit's covariance on that scale."""
    if result.cov_trans is None or not result.hessian_pd:
        raise EstimandError("fit has no positive-definite covariance")
    grad = np.asarray(gradient, dtype=float)
    var = float(grad @ result.cov_trans @ grad)
    return float(np.sqrt(max(var, 0.0)))


def lle_functional(
    result: FitResult,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """vec -> (LLE, its gradient) for the fitted model at optimizer-scale vec.

    Every positive grid time in each arm is a censored cluster of the
    likelihood: no events and cumulative hazard V = H(t, x). The cluster
    kernels give log S and its derivatives g_V in V and g_u in log variance,
    and _log_h_and_H gives d log H / d vec, so with a = signed weight * S,
    dLLE/dvec is (a g_V H) @ d log H for the baseline and beta, and a @ g_u
    for the log variance. The point t = 0 has S = 1 in both arms and drops
    out. Where H overflows, S and its derivatives take their limit 0.
    """
    spec = result.spec

    @functools.cache
    def grid():
        # built on first evaluation, so that its cost counts with it
        if not horizon > 0:
            raise DomainError(f"horizon must be positive, got {horizon}")
        w = horizon * _spline_weights(n_grid)[1:]
        t = horizon * np.linspace(0.0, 1.0, n_grid)[1:] ** 2
        arm = np.repeat([0.0, 1.0], t.size)
        return _grid_prepared(result, np.concatenate((t, t)), arm), np.concatenate((-w, w))

    def evaluate(vec: np.ndarray) -> tuple[float, np.ndarray]:
        vec = np.asarray(vec, dtype=float)
        prep, signed = grid()
        grad = np.empty(vec.size)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _, H, _, dlog_H = _log_h_and_H(prep, spec, vec)
            live = ~np.isposinf(H)
            log_S = np.full(H.size, -np.inf)
            g_V = np.zeros(H.size)
            g_u = np.zeros(H.size)
            log_S[live], g_V[live], g_u[live] = _cluster_terms(
                spec, prep.events_per_cluster[live], H[live], np.exp(vec[-1]), prep.d_range)
            a = signed * np.exp(log_S)
            # 0, not 0 * inf, where S underflowed
            grad[:-1] = np.where(a != 0.0, a * g_V * H, 0.0) @ dlog_H
            grad[-1] = np.where(a != 0.0, a * g_u, 0.0).sum()
        value = float(a.sum())
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            raise QuadratureError(f"LLE or its gradient is not finite at {vec!r}")
        return value, grad

    return evaluate


@functools.lru_cache(maxsize=None)
def true_estimands(scenario: Scenario, horizon: float | None = None) -> tuple[float, float]:
    """(true log hazard ratio, true LLE) for a data-generating scenario.

    The LLE side reuses the marginal-survival machinery at tightened
    settings: 4000 outer grid points and 63 GH nodes.
    """
    model = MarginalModel.from_scenario(scenario, gh_nodes=TRUTH_GH_NODES)
    h = scenario.censor_time if horizon is None else horizon
    true_lle = lle(model, h, n_grid=TRUTH_GRID)
    return scenario.beta, true_lle
