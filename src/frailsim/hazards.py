"""Baseline hazard families and frailty distributions for clustered survival data.

All hazard families implement the same triple of vectorized operations:
``hazard``, ``cumulative_hazard``, and ``inverse_cumulative_hazard``. Scalar
input gives scalar output; arrays give arrays of the same shape. Negative
times are rejected; t = 0 is valid exactly when the hazard has a finite limit
there.

Each family is a frozen dataclass whose fields are its parameters:
manifests write ``dataclasses.asdict`` of it, and the CLI's baseline parser
and ``fitting.ModelSpec``'s parameter names read ``dataclasses.fields``.
The likelihood keeps its own log-scale forms of the exp, wei and gom
curves, for their derivatives, and evaluates fitted models with them.

A frailty law (``FrailtySpec``) holds its sampler and its components, the
(weight, log-mean) pairs over which ``estimands.marginal_survival``
averages the family's kernel, ``fitting._cluster_terms``; no marginal
closed form lives here.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DomainError, NumericError

__all__ = [
    "BaselineHazard",
    "Exponential",
    "Weibull",
    "Gompertz",
    "WeibullMixture",
    "FrailtyFamily",
    "FrailtySpec",
]


def _prep_times(t, what: str = "times") -> tuple[np.ndarray, bool]:
    """t as a 1-d float array and whether it was a scalar; raises
    DomainError, naming ``what``, on a negative or NaN entry."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.isnan(arr).any() or (arr < 0).any():
        raise DomainError(f"{what} must be nonnegative")
    return arr, scalar


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


def _check_positive(**params: float) -> None:
    """Raise ValueError unless every named parameter is positive and finite."""
    for name, value in params.items():
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


class BaselineHazard(abc.ABC):
    """Interface shared by every baseline hazard family."""

    kind: str = ""

    @abc.abstractmethod
    def hazard(self, t):
        """h0(t). Raises DomainError for t < 0 or where the limit at 0 is infinite."""

    @abc.abstractmethod
    def cumulative_hazard(self, t):
        """H0(t) = integral of h0 from 0 to t."""

    @abc.abstractmethod
    def inverse_cumulative_hazard(self, u):
        """Smallest t with H0(t) = u. Returns inf where u exceeds sup H0."""


@dataclass(frozen=True)
class Exponential(BaselineHazard):
    rate: float

    kind = "exponential"

    def __post_init__(self):
        _check_positive(rate=self.rate)

    def hazard(self, t):
        arr, scalar = _prep_times(t)
        return _ret(np.full_like(arr, self.rate), scalar)

    def cumulative_hazard(self, t):
        arr, scalar = _prep_times(t)
        return _ret(self.rate * arr, scalar)

    def inverse_cumulative_hazard(self, u):
        arr, scalar = _prep_times(u, "cumulative-hazard targets")
        return _ret(arr / self.rate, scalar)


@dataclass(frozen=True)
class Weibull(BaselineHazard):
    """H0(t) = rate * t**shape."""

    rate: float
    shape: float

    kind = "weibull"

    def __post_init__(self):
        _check_positive(rate=self.rate, shape=self.shape)

    def hazard(self, t):
        arr, scalar = _prep_times(t)
        if self.shape < 1 and (arr == 0).any():
            raise DomainError("hazard is unbounded at t = 0 when shape < 1")
        with np.errstate(divide="ignore"):
            vals = self.rate * self.shape * arr ** (self.shape - 1.0)
        return _ret(vals, scalar)

    def cumulative_hazard(self, t):
        arr, scalar = _prep_times(t)
        return _ret(self.rate * arr**self.shape, scalar)

    def inverse_cumulative_hazard(self, u):
        arr, scalar = _prep_times(u, "cumulative-hazard targets")
        return _ret((arr / self.rate) ** (1.0 / self.shape), scalar)


@dataclass(frozen=True)
class Gompertz(BaselineHazard):
    """h0(t) = rate * exp(gamma * t); gamma may take either sign."""

    rate: float
    gamma: float

    kind = "gompertz"

    def __post_init__(self):
        _check_positive(rate=self.rate)
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")

    def hazard(self, t):
        arr, scalar = _prep_times(t)
        return _ret(self.rate * np.exp(self.gamma * arr), scalar)

    def cumulative_hazard(self, t):
        arr, scalar = _prep_times(t)
        if self.gamma == 0.0:
            return _ret(self.rate * arr, scalar)
        return _ret(self.rate * np.expm1(self.gamma * arr) / self.gamma, scalar)

    def inverse_cumulative_hazard(self, u):
        arr, scalar = _prep_times(u, "cumulative-hazard targets")
        if self.gamma == 0.0:
            return _ret(arr / self.rate, scalar)
        inner = self.gamma * arr / self.rate
        if self.gamma > 0:
            return _ret(np.log1p(inner) / self.gamma, scalar)
        # decreasing hazard: H0 saturates at rate/|gamma|
        out = np.full_like(arr, np.inf)
        feasible = inner > -1.0
        out[feasible] = np.log1p(inner[feasible]) / self.gamma
        return _ret(out, scalar)


@dataclass(frozen=True)
class WeibullMixture(BaselineHazard):
    """Two-component Weibull mixture on the survival scale.

    S0(t) = mix * exp(-rate1 * t**shape1) + (1 - mix) * exp(-rate2 * t**shape2).
    One kernel gives log H0 and its slope in log t to relative precision at
    every t > 0: near 0 through 1 - S0 summed from expm1 terms, far out
    through a log-sum-exp of the component log survivals, so that very large
    cumulative hazards stay finite, with the slope there from the
    components' shares of S0 as a softmax of their log survivals. The
    inverse is a bracketed Newton iteration on that kernel.
    """

    rate1: float
    shape1: float
    rate2: float
    shape2: float
    mix: float

    kind = "weibull_mixture"

    def __post_init__(self):
        _check_positive(rate1=self.rate1, shape1=self.shape1,
                        rate2=self.rate2, shape2=self.shape2)
        if not 0.0 < self.mix < 1.0:
            raise ValueError(f"mix must lie strictly in (0, 1), got {self.mix}")

    def _log_cumhaz_and_slope(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log H0(t) and d log H0 / d log t = t h0(t) / H0(t), for t > 0."""
        w = self.mix
        h1 = self.rate1 * t**self.shape1
        h2 = self.rate2 * t**self.shape2
        q = -(w * np.expm1(-h1) + (1.0 - w) * np.expm1(-h2))  # 1 - S0
        # np.where evaluates both branches; each is used only where it is accurate
        with np.errstate(divide="ignore", invalid="ignore"):
            log_s1, log_s2 = np.log(w) - h1, np.log1p(-w) - h2
            log_s = np.where(q <= 0.5, np.log1p(-q), np.logaddexp(log_s1, log_s2))
            cumhaz = -log_s
            # each component's share of S0, exp(log S_i - log S0), whose
            # exponent is off by about eps * cumhaz; far out, where that
            # rounds log(1 - mix) away (at a cumhaz of 1e16), the shares are
            # the softmax of the log S_i shifted by their max
            slope = (self.shape1 * h1 * w * np.exp(cumhaz - h1)
                     + self.shape2 * h2 * (1.0 - w) * np.exp(cumhaz - h2)) / cumhaz
            top = np.maximum(log_s1, log_s2)
            e1, e2 = np.exp(log_s1 - top), np.exp(log_s2 - top)
            slope = np.where(cumhaz > 1e6, (self.shape1 * h1 * e1 + self.shape2 * h2 * e2)
                             / ((e1 + e2) * cumhaz), slope)
            return np.log(cumhaz), slope

    def cumulative_hazard(self, t):
        arr, scalar = _prep_times(t)
        out = np.zeros_like(arr)
        pos = arr > 0
        out[pos] = np.exp(self._log_cumhaz_and_slope(arr[pos])[0])
        return _ret(out, scalar)

    def hazard(self, t):
        arr, scalar = _prep_times(t)
        out = np.empty_like(arr)
        zero = arr == 0
        if zero.any():
            out[zero] = self._hazard_at_zero()
        pos = ~zero
        if pos.any():
            tp = arr[pos]
            log_cumhaz, slope = self._log_cumhaz_and_slope(tp)
            h = slope * np.exp(log_cumhaz) / tp
            # where H0 is subnormal the slope loses its digits, and where both
            # component H underflow log H0 is -inf and the slope 0/0; there
            # h0 is its small-t limit, the weighted component hazards
            tiny = log_cumhaz < np.log(np.finfo(float).tiny)
            h[tiny] = sum(w * rate * shape * tp[tiny] ** (shape - 1.0)
                          for w, rate, shape in self._components())
            out[pos] = h
        return _ret(out, scalar)

    def _components(self) -> tuple[tuple[float, float, float], ...]:
        """(weight, rate, shape) of each Weibull component."""
        return ((self.mix, self.rate1, self.shape1),
                (1.0 - self.mix, self.rate2, self.shape2))

    def _hazard_at_zero(self) -> float:
        total = 0.0
        for w, rate, shape in self._components():
            if shape < 1.0:
                raise DomainError("hazard is unbounded at t = 0 when a component shape < 1")
            total += w * rate * shape if shape == 1.0 else 0.0
        return total

    def inverse_cumulative_hazard(self, u):
        arr, scalar = _prep_times(u, "cumulative-hazard targets")
        out = np.zeros_like(arr)
        out[np.isinf(arr)] = np.inf
        solve = np.isfinite(arr) & (arr > 0)
        if solve.any():
            out[solve] = self._invert_batch(arr[solve])
        return _ret(out, scalar)

    def _invert_batch(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized bracketed Newton on log H0 = log target in log t.

        Doubling from t = 1 brackets each root in [lo, hi]. Newton steps
        t <- t exp((log target - log H0) / slope) then start from
        sqrt(lo * hi), or from hi when lo = 0. Every iterate tightens the
        bracket, and a step that leaves it becomes the bracket's midpoint.
        The iteration stops once every step is at most 1e-13 t, and the
        result must match every target to 1e-10 relative.
        """
        log_targets = np.log(targets)
        hi = np.ones_like(targets)
        lo = np.zeros_like(targets)
        active = self._log_cumhaz_and_slope(hi)[0] < log_targets
        for _ in range(200):
            if not active.any():
                break
            lo[active] = hi[active]
            hi[active] *= 2.0
            active &= self._log_cumhaz_and_slope(hi)[0] < log_targets
        else:
            raise NumericError(
                f"could not bracket cumulative-hazard target {targets[active][0]}"
            )
        t = np.where(lo > 0, np.sqrt(lo * hi), hi)
        for _ in range(100):
            log_cumhaz, slope = self._log_cumhaz_and_slope(t)
            below = log_cumhaz < log_targets
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            with np.errstate(over="ignore", invalid="ignore"):
                new = t * np.exp((log_targets - log_cumhaz) / slope)
            # inclusive, so that an iterate exactly at the root stays there
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done = (np.abs(new - t) <= 1e-13 * t).all()
            t = new
            if done:
                break
        resid = np.expm1(self._log_cumhaz_and_slope(t)[0] - log_targets)
        if not (np.abs(resid) <= 1e-10).all():
            raise NumericError("inversion residual above tolerance")
        return t


class FrailtyFamily(str, Enum):
    GAMMA = "gamma"
    LOG_NORMAL = "lognormal"
    MIXTURE_NORMAL = "mixturenormal"


@dataclass(frozen=True)
class FrailtySpec:
    """A cluster-level multiplicative frailty distribution.

    ``variance`` is the Gamma variance for the Gamma family and the variance
    of the log frailty for the Normal-based families. The two-point Normal
    mixture puts weight 1/2 on means -3*sqrt(variance) and +3*sqrt(variance),
    each component having variance equal to ``variance`` as well.
    """

    family: FrailtyFamily
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "family", FrailtyFamily(self.family))
        _check_positive(variance=self.variance)

    @property
    def components(self) -> tuple[tuple[float, float], ...]:
        """(weight, log-mean) of each component of the law, weights summing
        to 1: the mixture's two Normal components of the log frailty, (0.5,
        -3 sqrt(variance)) and (0.5, +3 sqrt(variance)); for Gamma and
        log-Normal the whole law, (1.0, 0.0)."""
        if self.family is not FrailtyFamily.MIXTURE_NORMAL:
            return ((1.0, 0.0),)
        offset = 3.0 * np.sqrt(self.variance)
        return ((0.5, -offset), (0.5, offset))

    def standard_variates(self, rng: np.random.Generator, size: int | None = None) -> tuple:
        """The standard draws behind ``size`` frailties, in stream order.

        Gamma: standard gamma variates of shape 1/variance. Log-normal:
        standard normals. Mixture: uniforms picking the component, then
        standard normals. ``from_standard`` maps them to frailties.
        """
        if self.family is FrailtyFamily.GAMMA:
            return (rng.standard_gamma(1.0 / self.variance, size),)
        if self.family is FrailtyFamily.LOG_NORMAL:
            return (rng.standard_normal(size),)
        return (rng.random(size), rng.standard_normal(size))

    def from_standard(self, *variates) -> np.ndarray:
        """Multiplicative frailties alpha from ``standard_variates`` draws.

        The arithmetic is the one numpy's Generator.gamma and
        Generator.normal apply to their standard draws (scale * g and
        loc + scale * z), so the frailties equal those samplers' output.
        """
        if self.family is FrailtyFamily.GAMMA:
            (g,) = variates
            return self.variance * g
        sd = np.sqrt(self.variance)
        if self.family is FrailtyFamily.LOG_NORMAL:
            (z,) = variates
            return np.exp(sd * z)
        v, z = variates
        (_, lo_mean), (_, hi_mean) = self.components
        return np.exp(np.where(v < 0.5, lo_mean, hi_mean) + sd * z)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw multiplicative frailties alpha (one per cluster)."""
        return self.from_standard(*self.standard_variates(rng, size))
