"""Numerical integration kernels.

Three tools live here:

* plain Gauss-Hermite rules (physicists' convention, weight exp(-x^2)),
* adaptive Gauss-Hermite in log space, for marginalizing log-Normal
  cluster frailties whose integrands are sharply peaked: each integrand
  is recentred at its closed-form (Wright omega) mode and scaled by its
  exact curvature there, and
* tanh-sinh (double-exponential) quadrature on finite intervals, kept as
  a high-accuracy oracle.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import logsumexp, wrightomega

from .exceptions import DomainError, QuadratureError

__all__ = [
    "GHRule",
    "gh_rule",
    "adaptive_gh_batch",
    "lognormal_laplace",
    "tanh_sinh",
]

MAX_GH_NODES = 128


@dataclass(frozen=True)
class GHRule:
    """A Gauss-Hermite rule: integrates f(x) exp(-x^2) dx over the real line."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=None)
def gh_rule(n: int) -> GHRule:
    """Return the n-point Gauss-Hermite rule (physicists' convention)."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"node count must be an integer, got {type(n).__name__}")
    if not 1 <= n <= MAX_GH_NODES:
        raise ValueError(f"node count must be in [1, {MAX_GH_NODES}], got {n}")
    nodes, weights = hermgauss(int(n))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GHRule(n=int(n), nodes=nodes, weights=weights)


def lognormal_laplace(D, V, mean, var) -> tuple[np.ndarray, np.ndarray]:
    """Mode and curvature of l(eta) = eta*D - e^eta*V - (eta - mean)^2 / (2*var).

    l is the log-integrand of a log-Normal frailty marginal (Poisson-type
    cluster term times the Normal density of eta), and it is strictly
    concave. Writing the mode as eta* = mean + var*D - w, the score equation
    becomes w e^w = var*V*e^(mean + var*D), so w is the Wright omega function
    of log(var*V) + mean + var*D and the curvature -l''(eta*) is (w + 1)/var.
    V = 0 gives w = 0, the mode mean + var*D of a Normal integrand.
    """
    shift = mean + var * D
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = wrightomega(np.log(var * V) + shift)
        return shift - w, (w + 1.0) / var


def adaptive_gh_batch(
    log_f: Callable[[np.ndarray], np.ndarray],
    rule: GHRule,
    laplace: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log of integral exp(log_f(eta)) d(eta), for a batch of independent integrands.

    laplace is the (mode, curvature) pair of each log-integrand. The rule is
    recentred at the mode and its nodes scaled by sqrt(2 / curvature), so a
    moderate node count handles very concentrated integrands. log_f gets all
    nodes in one (rule.n, batch) array and returns the log-integrand there.

    Returns the log-integrals, the nodes eta as a (rule.n, batch) array and
    each node's normalised weight (its share of its integral), so that a
    posterior mean over the rule is a weighted sum along axis 0.
    """
    mode, curv = laplace
    scale = np.sqrt(2.0 / curv)
    eta = mode + scale * rule.nodes[:, None]
    terms = log_f(eta) + (rule.nodes**2 + np.log(rule.weights))[:, None]
    log_sum = logsumexp(terms, axis=0)
    with np.errstate(invalid="ignore"):
        return log_sum + np.log(scale), eta, np.exp(terms - log_sum)


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
