"""Tests for Gauss-Hermite rules, the log-Normal Laplace point, adaptive GH,
and tanh-sinh integration."""
from __future__ import annotations

import math

import numpy as np
import pytest

from frailsim.exceptions import DomainError, QuadratureError
from frailsim.quadrature import adaptive_gh_batch, gh_rule, lognormal_laplace, tanh_sinh


# A Gauss-Hermite rule with n nodes integrates x^d e^{-x^2} exactly for
# d <= 2n - 1; the exact value for even d is Gamma((d+1)/2).
@pytest.mark.parametrize("degree", [0, 2, 4, 8, 14, 20, 28])
def test_gh_even_moments_exact(degree):
    rule = gh_rule(15)
    approx = float(rule.weights @ rule.nodes**degree)
    exact = math.gamma((degree + 1) / 2)
    assert abs(approx - exact) <= 1e-12 * exact


def test_gh_odd_moments_vanish():
    rule = gh_rule(15)
    assert abs(float(rule.weights @ rule.nodes**7)) <= 1e-12


def test_gh_rule_shapes_and_symmetry():
    rule = gh_rule(31)
    assert rule.n == 31
    assert rule.nodes.shape == (31,)
    assert rule.weights.shape == (31,)
    assert np.all(rule.weights > 0)
    np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)


@pytest.mark.parametrize("bad", [0, -3, 129, 500])
def test_gh_rule_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        gh_rule(bad)


@pytest.mark.parametrize("bad", [2.5, "15", None])
def test_gh_rule_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        gh_rule(bad)


@pytest.mark.parametrize("n", [1, 128])
def test_gh_rule_accepts_boundary_counts(n):
    rule = gh_rule(n)
    assert rule.nodes.shape == (n,)


def _random_clusters(n, seed):
    """Cluster terms of the log-Normal marginal: event counts D in 0..200,
    cumulative hazards V spanning e^-12..e^12 with some exact zeros, and
    random log-frailty means and variances."""
    rng = np.random.default_rng(seed)
    D = rng.integers(0, 201, n).astype(float)
    V = np.exp(rng.uniform(-12.0, 12.0, n))
    V[rng.random(n) < 0.1] = 0.0
    mean = rng.normal(0.0, 3.0, n)
    var = np.exp(rng.uniform(-4.0, 2.0, n))
    return D, V, mean, var


def _hazard(eta, V):
    """e^eta * V, which is 0 at V = 0 even where e^eta overflows."""
    with np.errstate(divide="ignore"):
        return np.exp(eta + np.log(V))


def _lognormal_log_f(D, V, mean, var):
    def log_f(eta):
        return eta * D - _hazard(eta, V) - (eta - mean) ** 2 / (2.0 * var)
    return log_f


def test_lognormal_laplace_score_vanishes_at_mode():
    D, V, mean, var = _random_clusters(1000, seed=11)
    mode, _ = lognormal_laplace(D, V, mean, var)
    hazard = _hazard(mode, V)
    shrink = (mode - mean) / var
    score = D - hazard - shrink
    scale = D + hazard + np.abs(shrink) + 1.0
    assert np.all(np.abs(score) <= 1e-10 * scale)


def test_lognormal_laplace_curvature_is_exact():
    D, V, mean, var = _random_clusters(1000, seed=12)
    mode, curv = lognormal_laplace(D, V, mean, var)
    np.testing.assert_allclose(curv, _hazard(mode, V) + 1.0 / var, rtol=1e-10)


def test_adaptive_gh_matches_tanh_sinh_oracle():
    D, V, mean, var = _random_clusters(40, seed=13)
    laplace = lognormal_laplace(D, V, mean, var)
    got, _, _ = adaptive_gh_batch(_lognormal_log_f(D, V, mean, var), gh_rule(31), laplace)
    for k, (m, c) in enumerate(zip(*laplace)):
        log_f = _lognormal_log_f(D[k], V[k], mean[k], var[k])
        peak = log_f(m)
        half = 60.0 / math.sqrt(c)
        assert log_f(m - half) - peak < -40.0 and log_f(m + half) - peak < -40.0
        oracle = tanh_sinh(lambda eta: np.exp(log_f(eta) - peak), m - half, m + half,
                           tol=1e-13)
        assert abs(got[k] - (math.log(oracle) + peak)) <= 1e-9


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (3.7, 0.2), (-12.0, 8.0)])
def test_adaptive_gh_exact_for_gaussian_density(mu, sigma):
    """A Normal density integrates to 1 (log-integral 0) at its Laplace point,
    for any node count, because the rescaled integrand is a polynomial of
    degree 0 against the GH weight."""

    def log_f(eta):
        return -0.5 * ((eta - mu) / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))

    laplace = lognormal_laplace(0.0, 0.0, mu, sigma**2)
    assert laplace == (mu, 1.0 / sigma**2)
    assert abs(adaptive_gh_batch(log_f, gh_rule(5), laplace)[0]) <= 1e-12


def test_adaptive_gh_converges_on_skewed_integrand():
    # integral of exp(eta - e^eta) d eta = 1, mode at 0 with curvature 1,
    # skewed right
    def log_f(eta):
        return eta - np.exp(eta)

    laplace = (np.zeros(1), np.ones(1))
    err15 = abs(adaptive_gh_batch(log_f, gh_rule(15), laplace)[0][0])
    err31 = abs(adaptive_gh_batch(log_f, gh_rule(31), laplace)[0][0])
    assert err15 <= 2e-3
    assert err31 <= 1e-4
    assert err31 < err15


@pytest.mark.parametrize(
    "f,a,b,exact",
    [
        (lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0, math.pi),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
        (lambda x: np.log(x) * np.log1p(-x), 0.0, 1.0, 2.0 - math.pi**2 / 6.0),
        (np.exp, -2.0, 3.0, math.exp(3.0) - math.exp(-2.0)),
    ],
)
def test_tanh_sinh_known_integrals(f, a, b, exact):
    assert abs(tanh_sinh(f, a, b) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_tanh_sinh_handles_endpoint_singularities():
    # integrable singularities at both endpoints are never evaluated there
    val = tanh_sinh(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)
    assert abs(val - math.pi) <= 1e-7


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_tanh_sinh_rejects_bad_limits(a, b):
    with pytest.raises(DomainError):
        tanh_sinh(np.exp, a, b)


@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_tanh_sinh_rejects_nonpositive_tol(tol):
    with pytest.raises(ValueError):
        tanh_sinh(np.exp, 0.0, 1.0, tol=tol)


def test_tanh_sinh_raises_when_levels_exhausted():
    # a jump discontinuity cannot reach tol 1e-14 within the level cap
    with pytest.raises(QuadratureError):
        tanh_sinh(lambda x: (x > 0.5).astype(float), 0.0, 1.0, tol=1e-14)


def test_tanh_sinh_effort_scales_gently_with_tolerance():
    """Tightening the tolerance by 100x at most doubles the node count,
    because each refinement level doubles the evaluation grid."""
    counts = []
    for tol in (1e-6, 1e-8, 1e-10):
        n_evals = [0]

        def f(x):
            n_evals[0] += x.size
            return np.exp(-x) * np.sin(3.0 * x)

        tanh_sinh(f, 0.0, 2.0, tol=tol)
        counts.append(n_evals[0])
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[1] <= 2 * counts[0]
    assert counts[2] <= 2 * counts[1]
