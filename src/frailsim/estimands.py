"""Population-level estimands: marginal survival, life expectancy, LLE.

A MarginalModel couples a conditional cumulative hazard with a frailty
distribution; integrating the frailty out gives marginal survival, and
integrating that over time gives restricted life expectancy. Marginal
survival is the likelihood's cluster kernel (fitting._cluster_terms) at
D = 0, summed over FrailtySpec.components; this module tests no family.
The loss in life expectancy (LLE) is LE(treated) minus LE(untreated): the
years the untreated arm loses over the horizon, positive when beta < 0.

The time integral is one composite Gauss-Legendre rule on t = horizon u^3
(_time_rule): DEFAULT_GRID nodes on each of six panels of u, graded toward
t = 0, where survival starts as a power of t, plus one panel per break time
inside the horizon, the knots of an rp fit, where the third derivative of
its log cumulative hazard jumps. On smooth panels the rule converges
geometrically in its node count (Davis & Rabinowitz, Methods of Numerical
Integration, 2nd ed. 1984, sections 2.7 and 4.8). For a fitted model,
lle_functional evaluates the LLE and its gradient on the optimizer scale in
one pass over those nodes with the likelihood's own cluster kernels, and
delta_method_se turns such a gradient into a standard error.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import DomainError, EstimandError, QuadratureError
from .fitting import FitResult, _cluster_terms, _grid_prepared, _log_h_and_H
from .hazards import FrailtySpec
from .quadrature import gh_rule
# unused here, but bench/tracing.py patches this name on this module
from .quadrature import adaptive_gh_batch  # noqa: F401
from .simulate import Scenario
from .splines import SplineBasis

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

DEFAULT_GRID = 16
TRUTH_GH_NODES = 63
# the event counts of censored clusters: D = 0, over d_range = (0,)
_NO_EVENTS = np.zeros(1)

# the DEFAULT_GRID-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_TEMPLATE = np.polynomial.legendre.leggauss(DEFAULT_GRID)
# the panel edges on u, where t = horizon u^3
_PANEL_EDGES = np.array([0.0, 0.04, 0.2, 0.4, 0.6, 0.8, 1.0])


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


def _knot_times(basis: SplineBasis | None) -> np.ndarray:
    """The times e^k of an rp basis's knots, interior and boundary; none
    for a parametric baseline."""
    if basis is None:
        return np.empty(0)
    return np.exp(np.concatenate((basis.interior_knots, basis.boundary_knots)))


def _time_rule(horizon: float, breaks, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with w @ f(t) the integral of f over [0, horizon].

    On t = horizon u^3 the integral is that of 3 horizon u^2 f(horizon u^3)
    over u in [0, 1]. Its panels have edges at _PANEL_EDGES and at the cube
    root of every break time b / horizon with 0 < b < horizon, and each
    panel carries n_grid Gauss-Legendre nodes. No node lies on a panel edge,
    so t = 0 is never a node.
    """
    if not horizon > 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    breaks = np.asarray(breaks, dtype=float)
    inside = breaks[(breaks > 0.0) & (breaks < horizon)]
    edges = np.union1d(_PANEL_EDGES, np.cbrt(inside / horizon))
    nodes, weights = (_GL_TEMPLATE if n_grid == DEFAULT_GRID
                      else np.polynomial.legendre.leggauss(n_grid))
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return (horizon * u ** 3).ravel(), (3.0 * horizon * u * u * (half * weights)).ravel()


def marginal_survival(model: MarginalModel, t, x) -> np.ndarray | float:
    """Frailty-averaged survival probability at time(s) t for arm x.

    Each component of the frailty law (FrailtySpec.components) gives the
    term of a censored cluster, D = 0, in the likelihood's own kernel
    (_cluster_terms), and survival is their weighted sum. The kernel is
    also taken at V = 0, where survival must be 1: a law for which it is
    not finite there (a log-Normal variance far too large), or a cumulative
    hazard at which it is not, raises QuadratureError, at any t.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr < 0).any():
        raise DomainError("times must be nonnegative")
    H = np.asarray(model.cumulative_hazard(t_arr, float(x)), dtype=float)
    if (H < 0).any():
        raise DomainError("cumulative hazards must be nonnegative")
    frailty = model.frailty
    rule = gh_rule(model.gh_nodes)
    V = np.append(H, 0.0)
    S = np.zeros_like(V)
    # a NaN H, or in the Normal kernel an infinite H or a huge variance,
    # gives non-finite terms, and a QuadratureError below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for weight, mean in frailty.components:
            log_S = _cluster_terms(frailty.family, 0, _NO_EVENTS, V, frailty.variance, rule,
                                   order=0, mean=mean)[0]
            S += weight * np.exp(log_S)
    if not np.isfinite(S).all():
        raise QuadratureError("marginal survival is not finite "
                              f"at cumulative hazard {V[~np.isfinite(S)][:3]!r}")
    S = np.clip(S[:-1], 0.0, 1.0)
    S = np.where(H == 0.0, 1.0, S)
    return float(S[0]) if scalar else S


def life_expectancy(
    model: MarginalModel,
    x,
    horizon: float,
    n_grid: int = DEFAULT_GRID,
) -> float:
    """Restricted mean survival over [0, horizon] for arm x: marginal
    survival integrated by _time_rule, with n_grid nodes per panel and no
    breaks."""
    t, w = _time_rule(horizon, (), n_grid)
    return float(w @ marginal_survival(model, t, x))


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

    Every node of _time_rule, split at the fit's knot times with n_grid
    nodes per panel, is in each arm a censored cluster of the likelihood:
    no events and cumulative hazard V = H(t, x). The cluster kernels give
    log S and its derivatives g_V in V and g_u in log variance, and
    _log_h_and_H gives d log H / d vec, so with a = signed weight * S,
    dLLE/dvec is (a g_V H) @ d log H for the baseline and beta, and a @ g_u
    for the log variance. Where H overflows, S and its derivatives take
    their limit 0.
    """
    spec = result.spec

    @functools.cache
    def grid():
        # built on first evaluation, so that its cost counts with it
        t, w = _time_rule(horizon, _knot_times(result.params.basis), n_grid)
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
            log_S, g_V, g_u = _cluster_terms(
                spec.frailty, prep.rows.events_per_cluster, prep.rows.d_range,
                np.where(live, H, 0.0), np.exp(vec[-1]), gh_rule(spec.gh_nodes))
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

    The LLE side is that of a fitted model's marginal survival at 63 GH
    nodes, integrated by the same time rule.
    """
    model = MarginalModel.from_scenario(scenario, gh_nodes=TRUTH_GH_NODES)
    true_lle = lle(model, scenario.censor_time)
    return scenario.beta, true_lle
