"""Tests for Gauss-Hermite rules, the Wright omega function, the log-Normal
Laplace point, adaptive GH, and tanh-sinh integration."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from frailsim.exceptions import DomainError, QuadratureError
from frailsim.quadrature import (
    adaptive_gh_batch,
    gh_rule,
    lognormal_laplace,
    wright_omega,
)

from oracles import tanh_sinh


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


def test_wright_omega_matches_scipy():
    """An oracle: scipy.special.wrightomega, imported here only. The relative
    difference is at most 1e-14 wherever scipy's value is a normal positive
    float (about 1e-15 at most on this grid; below z = -2 both are up to
    some 30 ulp off, by mpmath, since the residual z - w - log w cancels
    there). Below z = -708 the value exp(z) is
    subnormal, one unit of which exceeds 1e-14 relative, and numpy's exp
    and the C library's may round apart: there the two agree to one unit."""
    from scipy.special import wrightomega

    z = np.concatenate([np.linspace(-745.0, 745.0, 200_001),
                        [-50.0, -2.0, 1.0, 1e20, -0.0, 0.0]])
    got, want = wright_omega(z), wrightomega(z)
    normal = want >= np.finfo(float).tiny
    assert np.isfinite(want).all() and normal.sum() > 190_000
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-14 * want[normal])
    subnormal = ~normal & (want > 0)
    assert subnormal.sum() > 1_000
    assert np.all(np.abs(got[subnormal] - want[subnormal]) <= np.nextafter(0.0, 1.0))


def test_wright_omega_skips_change_no_value():
    """wright_omega skips the exp start where no z is below 1 and the second
    step where no value needs it. One value per call takes exactly its own
    branches, so single calls must equal one call on a batch that mixes
    every region, bit for bit."""
    z = np.concatenate([np.linspace(-60.0, 60.0, 1201), np.geomspace(1.0, 1e22, 300),
                        [-np.inf, np.inf, np.nan]])
    batch = wright_omega(z)
    single = np.array([wright_omega(x) for x in z])
    assert np.array_equal(batch, single, equal_nan=True)
    assert np.array_equal(wright_omega(z[z >= 1.0]), batch[z >= 1.0])


def test_wright_omega_at_the_edges():
    """0 at -inf and below the smallest exp, z itself above 1e20 and at +inf,
    NaN for NaN, and a 0-d result for scalar and 0-d input."""
    z = np.array([-np.inf, -800.0, 1e25, 1e300, np.inf, np.nan])
    got = wright_omega(z)
    assert np.array_equal(got[:5], [0.0, 0.0, 1e25, 1e300, np.inf])
    assert np.isnan(got[5])
    for scalar in (0.5, np.float64(0.5), np.array(0.5)):
        assert np.ndim(wright_omega(scalar)) == 0
    # omega(1) = 1 and omega(0) is the omega constant, W(1)
    assert wright_omega(1.0) == 1.0
    assert abs(wright_omega(0.0) - 0.5671432904097838) <= 1e-16
    assert wright_omega(np.array(-np.inf)) == 0.0


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


def _remainder(log_f, mode, curv):
    """The remainder R(t) = l(m + t) - l(m) + t^2/s^2 of the log-integrand l
    about its Laplace point, as a difference of the whole log-integrand,
    with 1/s^2 = curv/2."""
    def R(t):
        return log_f(mode + t) - log_f(mode) + 0.5 * curv * t * t
    return R


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
    log_f = _lognormal_log_f(D, V, mean, var)
    got = adaptive_gh_batch(_remainder(log_f, *laplace), gh_rule(31), laplace)[0]
    got += log_f(laplace[0])
    for k, (m, c) in enumerate(zip(*laplace)):
        log_f = _lognormal_log_f(D[k], V[k], mean[k], var[k])
        peak = log_f(m)
        half = 60.0 / math.sqrt(c)
        assert log_f(m - half) - peak < -40.0 and log_f(m + half) - peak < -40.0
        oracle = tanh_sinh(lambda eta: np.exp(log_f(eta) - peak), m - half, m + half,
                           tol=1e-13)
        assert abs(got[k] - (math.log(oracle) + peak)) <= 1e-9


def test_adaptive_gh_sums_the_weighted_exponentials_bit_for_bit():
    """adaptive_gh_batch exponentiates the array log_f returns in place and
    returns it with log(weights @ e^R) + log s, each step the operation of
    the expression form below, so neither output moves by one bit."""
    D, V, mean, var = _random_clusters(500, seed=17)
    rule = gh_rule(15)
    laplace = lognormal_laplace(D, V, mean, var)
    R = _remainder(_lognormal_log_f(D, V, mean, var), *laplace)
    scale = np.sqrt(2.0 / laplace[1])
    terms = np.exp(R(scale * rule.nodes[:, None]))
    got = adaptive_gh_batch(R, rule, laplace)
    assert np.array_equal(got[0], np.log(rule.weights @ terms) + np.log(scale))
    assert np.array_equal(got[1], terms)


def test_adaptive_gh_calls_log_f_once_on_offsets_it_owns():
    """log_f gets the offsets s*z once, as a fresh array it may overwrite,
    so a caller may keep what its log_f computed there; the array it
    returns comes back exponentiated."""
    D, V, mean, var = _random_clusters(30, seed=19)
    rule = gh_rule(15)
    laplace = lognormal_laplace(D, V, mean, var)
    R = _remainder(_lognormal_log_f(D, V, mean, var), *laplace)
    seen = []

    def log_f(t):
        seen.append(t.copy())
        assert t.flags.writeable and t.flags.owndata
        t[...] = R(t)
        return t

    _, terms = adaptive_gh_batch(log_f, rule, laplace)
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.sqrt(2.0 / laplace[1]) * rule.nodes[:, None])
    assert np.array_equal(terms, np.exp(R(seen[0])))
    assert not np.shares_memory(terms, rule.nodes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_adaptive_gh_log_sum_matches_scipy_logsumexp():
    """The log-integral is the log-sum-exp over the nodes of R + log
    weights, plus log s, without a max-shift: remainders up to their bound
    z^2 do not overflow, even at 127 nodes, and a centre node at R = 0 keeps
    every sum positive where all others underflow."""
    rule = gh_rule(127)
    z2 = (rule.nodes**2)[:, None]
    rng = np.random.default_rng(29)
    R = rng.uniform(-800.0, 1.0, (rule.n, 200)) * z2
    R[:, 3] = z2[:, 0]
    R[:, [77, 150]] = -1e300
    R[rule.n // 2] = 0.0
    curv = np.exp(rng.uniform(-5.0, 5.0, 200))
    got, terms = adaptive_gh_batch(lambda t: R.copy(), rule, (np.zeros(200), curv))
    want = logsumexp(R + np.log(rule.weights)[:, None], axis=0) + 0.5 * np.log(2.0 / curv)
    assert np.isfinite(got).all() and np.isfinite(terms).all()
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
    assert np.array_equal(got[[77, 150]], np.log(rule.weights[rule.n // 2]) + 0.5 * np.log(
        2.0 / curv[[77, 150]]))


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (3.7, 0.2), (-12.0, 8.0)])
def test_adaptive_gh_exact_for_gaussian_density(mu, sigma):
    """A Normal density integrates to 1 (log-integral 0) at its Laplace point,
    for any node count, because its remainder is R = 0: the rescaled
    integrand is a polynomial of degree 0 against the GH weight. Without
    hazard (V = 0, so omega(-inf) = 0) that point is the density's own mode
    and curvature, exactly, for float and 0-d array input alike."""

    def log_f(eta):
        return -0.5 * ((eta - mu) / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))

    assert lognormal_laplace(np.array(0.0), np.array(0.0), mu, sigma**2) == (mu, 1.0 / sigma**2)
    laplace = lognormal_laplace(0.0, 0.0, mu, sigma**2)
    assert laplace == (mu, 1.0 / sigma**2)
    rule = gh_rule(5)
    got = adaptive_gh_batch(_remainder(log_f, *laplace), rule, laplace)[0]
    assert abs(got + log_f(mu)) <= 1e-12
    flat = adaptive_gh_batch(np.zeros_like, rule, laplace)[0]
    assert flat == np.log(rule.weights.sum()) + np.log(np.sqrt(2.0 / laplace[1]))


def test_adaptive_gh_converges_on_skewed_integrand():
    # integral of exp(eta - e^eta) d eta = 1, mode at 0 with curvature 1,
    # skewed right: l(0) = -1 and R(t) = t - expm1(t) + t^2/2
    def log_f(t):
        return t - np.expm1(t) + 0.5 * t * t

    laplace = (np.zeros(1), np.ones(1))
    err15 = abs(adaptive_gh_batch(log_f, gh_rule(15), laplace)[0][0] - 1.0)
    err31 = abs(adaptive_gh_batch(log_f, gh_rule(31), laplace)[0][0] - 1.0)
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
