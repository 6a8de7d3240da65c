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
    _cluster_terms,
    _grid_prepared,
    _log_h_and_H,
    _lognormal_clusters,
)
from .hazards import FrailtyFamily, FrailtySpec, gamma_marginal_survival
from .quadrature import gh_rule
# unused here, but bench/tracing.py patches this name on this module
from .quadrature import adaptive_gh_batch  # noqa: F401
from .simulate import Scenario
from .splines import natural_spline_weights

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
    cumulative_hazard: Callable[[np.ndarray, float], np.ndarray]
    gh_nodes: int = 15

    @classmethod
    def from_scenario(cls, scenario: Scenario, gh_nodes: int = TRUTH_GH_NODES) -> MarginalModel:
        def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
            return scenario.baseline.cumulative_hazard(t) * np.exp(x * scenario.beta)

        return cls(frailty=scenario.frailty, cumulative_hazard=cumhaz, gh_nodes=gh_nodes)

    @classmethod
    def from_fit(cls, result: FitResult, gh_nodes: int | None = None) -> MarginalModel:
        """The fitted model: H(t, x) from _log_h_and_H on the likelihood's own
        rows at result.trans, the rows lle_functional evaluates, and 0 at t = 0."""
        def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
            positive = t > 0
            out = np.zeros_like(t)
            if positive.any():
                prep = _grid_prepared(result, t[positive], np.full(positive.sum(), x))
                with np.errstate(over="ignore"):
                    out[positive] = _log_h_and_H(prep, result.spec, result.trans)[1]
            return out

        return cls(
            frailty=FrailtySpec(result.spec.frailty, result.params.frailty_var),
            cumulative_hazard=cumhaz,
            gh_nodes=gh_nodes if gh_nodes is not None else result.spec.gh_nodes,
        )


def marginal_survival(model: MarginalModel, t, x) -> np.ndarray | float:
    """Frailty-averaged survival probability at time(s) t for arm x.

    Gamma frailty has a closed form. A log-Normal frailty is one Normal
    component of the log frailty and a mixture several; each component's
    term is that of a censored cluster with the component's log-mean in the
    likelihood's own log-Normal kernel, and survival is their weighted sum.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr < 0).any():
        raise DomainError("times must be nonnegative")
    H = np.asarray(model.cumulative_hazard(t_arr, float(x)), dtype=float)
    frailty = model.frailty
    if frailty.family is FrailtyFamily.GAMMA:
        S = np.atleast_1d(np.asarray(gamma_marginal_survival(H, frailty.variance), dtype=float))
    else:
        components = ([(1.0, 0.0)] if frailty.family is FrailtyFamily.LOG_NORMAL
                      else zip(frailty.mixture_probs, frailty.mixture_means))
        rule = gh_rule(model.gh_nodes)
        S = np.zeros_like(H)
        # an infinite H or a huge variance gives non-finite terms, and a
        # QuadratureError below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for prob, mean in components:
                log_S = _lognormal_clusters(0.0, H, frailty.variance, rule, mean, order=0)[0]
                S += prob * np.exp(log_S)
        if not np.isfinite(S).all():
            raise QuadratureError("log-Normal marginal survival is not finite "
                                  f"at cumulative hazard {H[~np.isfinite(S)][:3]!r}")
    S = np.clip(S, 0.0, 1.0)
    S = np.where(H == 0.0, 1.0, S)
    return float(S[0]) if scalar else S


@functools.lru_cache(maxsize=None)
def _spline_weights(n_grid: int) -> np.ndarray:
    """Weights w such that the integral over [0, 1] of the natural cubic
    spline through (u_i^2, S_i), u uniform on [0, 1] with n_grid points,
    is w @ S. On the grid horizon * u^2 the weights are horizon * w."""
    w = natural_spline_weights(np.linspace(0.0, 1.0, n_grid) ** 2)
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
    if result.cov_trans is None:
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
            # where H overflowed S is 0: the terms there are taken at V = 0
            # and dropped
            live = ~np.isposinf(H)
            log_S, g_V, g_u = _cluster_terms(spec, prep.rows, np.where(live, H, 0.0),
                                             np.exp(vec[-1]))
            a = np.where(live, signed * np.exp(log_S), 0.0)
            # 0, not 0 * inf, where S underflowed
            grad[:-1] = dlog_H @ np.where(a != 0.0, a * g_V * H, 0.0)
            grad[-1] = np.where(a != 0.0, a * g_u, 0.0).sum()
        value = float(a.sum())
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            raise QuadratureError(f"LLE or its gradient is not finite at {vec!r}")
        return value, grad

    return evaluate


@functools.lru_cache(maxsize=None)
def true_estimands(scenario: Scenario) -> tuple[float, float]:
    """(true log hazard ratio, true LLE over the scenario's censoring time)
    for a data-generating scenario.

    The LLE side reuses the marginal-survival machinery at tightened
    settings: 4000 outer grid points and 63 GH nodes.
    """
    model = MarginalModel.from_scenario(scenario, gh_nodes=TRUTH_GH_NODES)
    true_lle = lle(model, scenario.censor_time, n_grid=TRUTH_GRID)
    return scenario.beta, true_lle
