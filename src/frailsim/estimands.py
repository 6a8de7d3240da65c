"""Population-level estimands: marginal survival, life expectancy, LLE.

A MarginalModel couples a conditional cumulative hazard with a frailty
distribution; integrating the frailty out gives marginal survival, and
integrating that over time gives restricted life expectancy. The loss in
life expectancy (LLE) is LE(treated) minus LE(untreated): the years the
untreated arm loses over the horizon, positive when beta < 0.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import DomainError, EstimandError, QuadratureError
from .fitting import FitResult, ModelParams, conditional_pieces
from .hazards import FrailtyFamily, FrailtySpec, gamma_marginal_survival
from .quadrature import adaptive_gh_batch, gh_rule, lognormal_laplace
from .simulate import Scenario
from .splines import interp_integrate

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
    const = -0.5 * np.log(2.0 * np.pi * variance)

    def log_f(eta: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return -np.exp(eta) * H - (eta - mean) ** 2 / (2.0 * variance) + const

    laplace = lognormal_laplace(0.0, H, mean, variance)
    S = np.exp(adaptive_gh_batch(log_f, gh_rule(nodes), laplace)[0])
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


def life_expectancy(
    model: MarginalModel,
    x,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> float:
    """Restricted mean survival over [0, horizon] for arm x.

    Marginal survival is evaluated on an n_grid-point grid including both
    endpoints, interpolated with a natural spline, and the spline is
    integrated exactly. The grid is quadratically graded toward zero
    (t_i proportional to i^2) because high-variance frailty mixtures put
    non-trivial mass on near-immediate events; a uniform grid cannot
    resolve that initial drop at any practical size.
    """
    if not horizon > 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    grid = horizon * np.linspace(0.0, 1.0, n_grid) ** 2
    S = marginal_survival(model, grid, x)
    return interp_integrate(grid, S, 0.0, horizon)


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


def delta_method_se(
    result: FitResult,
    functional: Callable[[np.ndarray], float],
    rel_step: float = 1e-5,
) -> float:
    """Numerical delta-method SE of functional(transformed parameters)."""
    if result.cov_trans is None or not result.hessian_pd:
        raise EstimandError("fit has no positive-definite covariance")
    point = np.asarray(result.trans, dtype=float)
    grad = np.empty_like(point)
    for k in range(point.size):
        h = rel_step * (1.0 + abs(point[k]))
        up = point.copy()
        up[k] += h
        dn = point.copy()
        dn[k] -= h
        # Divide by the realized step so linear maps differentiate exactly.
        grad[k] = (functional(up) - functional(dn)) / (up[k] - dn[k])
    var = float(grad @ result.cov_trans @ grad)
    return float(np.sqrt(max(var, 0.0)))


def lle_functional(
    result: FitResult,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> Callable[[np.ndarray], float]:
    """LLE as a function of the optimizer-scale parameter vector."""

    def functional(vec: np.ndarray) -> float:
        params = result.params_from_trans(vec)
        return lle(MarginalModel.from_params(params), horizon, n_grid)

    return functional


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
