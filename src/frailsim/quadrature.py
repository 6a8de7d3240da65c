"""Numerical integration kernels.

Two tools live here:

* plain Gauss-Hermite rules (physicists' convention, weight exp(-x^2)), and
* adaptive Gauss-Hermite, for marginalizing log-Normal cluster frailties
  whose integrands are sharply peaked: each integrand is recentred at its
  closed-form (Wright omega) mode and scaled by its exact curvature there,
  with the real Wright omega function computed here. The rule sums the
  integrand's remainder about that Laplace point, e^(R(t)) with R(t) =
  l(m + t) - l(m) + t^2/s^2, which is at most e^(z^2) at node z for a
  concave l, so the sum needs no max-shift and its terms no log weights.

The tests check both against a tanh-sinh quadrature that lives with them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "GHRule",
    "gh_rule",
    "adaptive_gh_batch",
    "lognormal_laplace",
    "wright_omega",
]

MAX_GH_NODES = 128
# 72 times machine epsilon, against which wright_omega weighs the error term
# of its first Fritsch-Shafer-Crowley step
_OMEGA_TOL = 72.0 * np.finfo(float).eps


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
    for array in (nodes, weights):
        array.setflags(write=False)
    return GHRule(n=int(n), nodes=nodes, weights=weights)


def _fsc_step(z: np.ndarray, w: np.ndarray):
    """One Fritsch-Shafer-Crowley step towards the w with w + log(w) = z,
    with the relative residual r / (w + 1) and the w + 1 it started from,
    r = z - w - log(w). The doublings are sums, which round alike."""
    r = z - w - np.log(w)
    wp1 = w + 1.0
    q = r / wp1
    a = (wp1 + wp1) * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + q * (a - r) / (a - (r + r))), q, wp1


def wright_omega(z):
    """The real Wright omega function: the w with w + log(w) = z.

    The algorithm of scipy.special.wrightomega for real input (Lawrence,
    Corless & Jeffrey, ACM TOMS Algorithm 917, 2012): a start by region,
    exp(z) below z = -2, exp(2 (z - 1) / 3) below 1 and z - log z + log z / z
    above, then a Fritsch-Shafer-Crowley step of fourth order, and a second
    one where the first one's error term, (2w^2 - 8w - 1) r^4 / (72 (w+1)^6),
    may exceed machine epsilon. Below z = -50 the start exp(z) is already
    exact and is returned, as is z itself above 1e20, so -inf gives 0 and
    +inf gives inf; NaN gives NaN. A 0-d input gives a 0-d result.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_z = np.log(z)
        w = z - log_z + log_z / z
        # The two .any() tests only skip work; the values are those of the
        # form that always takes both branches. In fits few z are below 1 and
        # most need one step: at 20 values the skips save about 12 of 44 us.
        low = z < 1.0
        any_low = low.any()
        if any_low:
            # z < 2 (z - 1) / 3 exactly where z < -2
            start = np.exp(np.minimum(z, 2.0 * (z - 1.0) / 3.0))
            w = np.where(low, start, w)
        w, q, wp1 = _fsc_step(z, w)
        # the error term over (w + 1)^4, against 72 eps (w + 1)^2
        q2 = q * q
        again = (np.abs(((w + w - 8.0) * w - 1.0) * (q2 * q2))
                 >= _OMEGA_TOL * (wp1 * wp1))
        if again.any():
            w = np.where(again, _fsc_step(z, w)[0], w)
        if any_low:
            w = np.where(z < -50.0, start, w)
        return np.where(z > 1e20, z, w)


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
        w = wright_omega(np.log(var * V) + shift)
        return shift - w, (w + 1.0) / var


def adaptive_gh_batch(
    log_f: Callable[[np.ndarray], np.ndarray],
    rule: GHRule,
    laplace: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Log of integral exp(l(eta)) d(eta) - l(m), for a batch of independent
    concave log-integrands l with their maxima at the modes m.

    laplace is the (mode, curvature) pair of each log-integrand. The rule is
    recentred at the mode and its nodes z scaled by s = sqrt(2 / curvature),
    so a moderate node count handles very concentrated integrands. log_f
    gets the node offsets t = s*z as one (rule.n, batch) array, which it
    owns and may overwrite, and returns the remainder R(t) = l(m + t) - l(m)
    + t^2/s^2 there, exact at the nodes: the caller adds l(m) to the result.
    log_f is called exactly once, so a caller may keep what it computed on
    the offsets for its own derivatives.

    Where l is concave with its maximum at m, R(t) <= z^2, so no term
    w_j e^(R_j) overflows, and at a centre node R is 0, which keeps the sum
    positive. The array log_f returns is exponentiated in place and summed
    against the weights. An infinite cumulative hazard gives scale 0; the
    non-finite log-integral that follows is the caller's to report.

    Returns the log-integrals log(sum_j w_j e^(R_j)) + log s and the array
    of e^(R_j), so that the posterior weight of node j is w_j e^(R_j) over
    that sum.
    """
    scale = np.sqrt(2.0 / laplace[1])
    terms = log_f(scale * rule.nodes[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.exp(terms, out=terms)
        return np.log(rule.weights @ terms) + np.log(scale), terms
