"""Tests for marginal survival, life expectancy, and delta-method SEs."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from frailsim import estimands, fitting
from frailsim.estimands import (
    Z95,
    EstimandName,
    EstimandResult,
    MarginalModel,
    delta_method_se,
    life_expectancy,
    lle,
    lle_functional,
    marginal_survival,
    true_estimands,
)
from frailsim.exceptions import DomainError, EstimandError, QuadratureError
from frailsim.fitting import fit, model_from_id
from frailsim.hazards import FrailtyFamily, FrailtySpec
from frailsim.quadrature import adaptive_gh_batch, gh_rule, lognormal_laplace
from frailsim.simulate import generate_dataset, make_scenario, scenario_grid
from frailsim.splines import natural_spline_weights

from oracles import marginal_model, params_from_trans, tanh_sinh, tanh_sinh_lle


def test_estimand_names_are_the_csv_labels():
    assert [e.value for e in EstimandName] == ["LogHR", "HR", "LLE", "FrailtyVar"]


def test_estimand_result_ci_and_hr_transform():
    r = EstimandResult(EstimandName.LOG_HR, -0.5, 0.1)
    lo, hi = r.ci
    assert abs(lo - (-0.5 - Z95 * 0.1)) <= 1e-15
    assert abs(hi - (-0.5 + Z95 * 0.1)) <= 1e-15
    hr = r.hazard_ratio()
    assert hr.name is EstimandName.HR
    assert abs(hr.estimate - math.exp(-0.5)) <= 1e-15
    assert abs(hr.se - math.exp(-0.5) * 0.1) <= 1e-15
    # the HR interval is the exponentiated log-HR interval, not est +- z se
    assert abs(hr.ci[0] - math.exp(lo)) <= 1e-15
    assert abs(hr.ci[1] - math.exp(hi)) <= 1e-15


def test_estimand_result_rejects_negative_se():
    with pytest.raises(ValueError):
        EstimandResult(EstimandName.LLE, 1.0, -0.01)


def test_gamma_marginal_survival_matches_closed_form():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    model = MarginalModel.from_scenario(sc)
    for t in (0.5, 1.0, 2.0, 4.0):
        for x in (0.0, 1.0):
            H = 0.5 * t * math.exp(sc.beta * x)
            want = (1.0 + 0.25 * H) ** (-4.0)
            assert abs(marginal_survival(model, t, x) - want) <= 1e-12


def test_marginal_survival_at_time_zero_is_one():
    sc = make_scenario("wei", "lognormal", 0.75, 20, 150)
    model = MarginalModel.from_scenario(sc)
    got = marginal_survival(model, np.array([0.0, 1.0]), 0.0)
    assert got[0] == 1.0
    assert 0.0 < got[1] < 1.0


def test_lognormal_marginal_survival_against_monte_carlo():
    sc = make_scenario("wei", "lognormal", 0.75, 20, 150)
    model = MarginalModel.from_scenario(sc)
    got = marginal_survival(model, 2.0, 0.0)
    rng = np.random.default_rng(424242)
    eta = rng.normal(0.0, math.sqrt(0.75), 1_000_000)
    H = sc.baseline.cumulative_hazard(np.array([2.0]))[0]
    draws = np.exp(-np.exp(eta) * H)
    mc_se = draws.std(ddof=1) / 1000.0
    assert abs(got - draws.mean()) <= 4.0 * mc_se


def test_mixture_marginal_survival_against_monte_carlo():
    sc = make_scenario("gom", "mixturenormal", 0.25, 20, 150)
    model = MarginalModel.from_scenario(sc)
    got = marginal_survival(model, 3.0, 1.0)
    rng = np.random.default_rng(271828)
    comp = rng.integers(0, 2, 1_000_000)
    mu = np.where(comp == 0, -1.5, 1.5)
    eta = rng.normal(mu, 0.5)
    H = sc.baseline.cumulative_hazard(np.array([3.0]))[0] * math.exp(sc.beta)
    draws = np.exp(-np.exp(eta) * H)
    mc_se = draws.std(ddof=1) / 1000.0
    assert abs(got - draws.mean()) <= 4.0 * mc_se


def _whole_batch_survival(model, t, x):
    """marginal_survival as one adaptive_gh_batch call per component on the
    whole grid, with the remainder about the Laplace point and the log
    peak each as one expression."""
    H = model.cumulative_hazard(t, x)
    var = model.frailty.variance
    S = np.zeros_like(H)
    for prob, mean in model.frailty.components:
        mode, curv = lognormal_laplace(0.0, H, mean, var)
        with np.errstate(divide="ignore"):
            A = np.exp(mode + np.log(H))
        dev = mode - mean
        slope = 0.0 - dev / var
        quad = 0.5 * curv - 0.5 / var

        def remainder(t, A=A, slope=slope, quad=quad):
            return (quad * t + slope) * t - A * np.expm1(t)

        log_q = adaptive_gh_batch(remainder, gh_rule(model.gh_nodes), (mode, curv))[0]
        log_peak = mode * 0.0 - A - dev * dev / (2.0 * var) - 0.5 * np.log(2.0 * np.pi * var)
        S += prob * np.exp(log_q + log_peak)
    return np.where(H == 0.0, 1.0, np.clip(S, 0.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("nodes", [15, estimands.TRUTH_GH_NODES])
@pytest.mark.parametrize("frailty", ["lognormal", "mixturenormal"])
def test_blocked_marginal_survival_equals_the_whole_batch_bit_for_bit(frailty, nodes):
    """marginal_survival evaluates the quadrature of the likelihood's
    log-Normal kernel in column blocks, into work arrays it reuses from
    block to block; on a grid 3.3 blocks long,
    with zero times at and next to the block edges, every value equals that
    of the quadrature run once on the whole grid, and a second call in a
    row returns the same values, so the work arrays carry nothing from one
    call to the next."""
    model = dataclasses.replace(
        MarginalModel.from_scenario(make_scenario("wei", frailty, 0.75, 20, 150)), gh_nodes=nodes)
    block = fitting._BLOCK_ELEMENTS // nodes
    n = 3 * block + block // 3
    t = np.random.default_rng(nodes).uniform(0.0, 10.0, n) ** 2
    t[[0, block - 1, block, 2 * block + 1, n - 1]] = 0.0
    for x in (0.0, 1.0):
        got = marginal_survival(model, t, x)
        want = _whole_batch_survival(model, t, x)
        assert np.array_equal(got, want)
        assert np.array_equal(marginal_survival(model, t, x), got)
        assert got[block] == 1.0 and 0.0 < got[block + 1] < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("frailty", ["lognormal", "mixturenormal"])
def test_marginal_survival_is_one_at_zero_cumulative_hazard(frailty):
    """At H = 0 the remainder is exactly 0, a Gaussian integrand: survival
    reads exactly 1 with no warning, at t = 0 and wherever a model has no
    hazard yet."""
    sc = make_scenario("wei", frailty, 0.75, 20, 150)
    model = MarginalModel.from_scenario(sc)
    assert marginal_survival(model, 0.0, 1.0) == 1.0
    late = dataclasses.replace(model, cumulative_hazard=lambda t, x: np.maximum(t - 2.0, 0.0))
    got = marginal_survival(late, np.array([0.0, 1.0, 2.0, 3.0]), 0.0)
    assert np.array_equal(got[:3], [1.0, 1.0, 1.0]) and 0.0 < got[3] < 1.0


@pytest.mark.parametrize("frailty", ["lognormal", "mixturenormal"])
def test_truth_marginal_survival_matches_tanh_sinh(frailty):
    """At the truth settings (63 nodes) marginal survival is the Normal
    mixture average of exp(-e^eta H) to 1e-12, for H from 1e-6 to 50. The
    oracle splits each component's range at the integrand's peak, where a
    large H makes it narrow."""
    sc = make_scenario("wei", frailty, 0.75, 20, 150)
    model = MarginalModel.from_scenario(sc)
    assert model.gh_nodes == estimands.TRUTH_GH_NODES
    t = sc.baseline.inverse_cumulative_hazard(np.logspace(-6.0, math.log10(50.0), 25))
    H = model.cumulative_hazard(t, 0.0)
    got = marginal_survival(model, t, 0.0)
    sd = math.sqrt(model.frailty.variance)
    for k in range(H.size):
        want = 0.0
        for prob, mean in model.frailty.components:
            def integrand(eta, mean=mean):
                z = (eta - mean) / sd
                return np.exp(-0.5 * z * z - np.exp(eta) * H[k]) / (sd * math.sqrt(2.0 * math.pi))

            peak = float(lognormal_laplace(0.0, H[k], mean, sd * sd)[0])
            want += prob * (tanh_sinh(integrand, mean - 12.0 * sd, peak, tol=1e-14)
                            + tanh_sinh(integrand, peak, mean + 12.0 * sd, tol=1e-14))
        assert abs(got[k] - want) <= 1e-12


@pytest.mark.parametrize("family", [FrailtyFamily.LOG_NORMAL, FrailtyFamily.MIXTURE_NORMAL])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normal_frailty_marginal_survival_rejects_infinite_hazard(family):
    model = MarginalModel(FrailtySpec(family, 0.5),
                          lambda t, x: np.where(t > 1.0, np.inf, t))
    with pytest.raises(QuadratureError):
        marginal_survival(model, np.array([0.5, 2.0]), 0.0)


@pytest.mark.parametrize("family", list(FrailtyFamily))
def test_marginal_survival_rejects_a_negative_cumulative_hazard(family):
    model = MarginalModel(FrailtySpec(family, 0.5), lambda t, x: t - 1.0)
    with pytest.raises(DomainError):
        marginal_survival(model, np.array([0.5, 2.0]), 0.0)


@pytest.mark.parametrize("family", list(FrailtyFamily))
def test_marginal_survival_rejects_a_nan_time(family):
    """A NaN time is not a nonnegative one, for every law."""
    model = MarginalModel.from_scenario(make_scenario("wei", family.value, 0.5, 20, 150))
    for t in (np.array([0.5, np.nan]), np.nan):
        with pytest.raises(DomainError, match="nonnegative"):
            marginal_survival(model, t, 0.0)


def test_fitted_marginal_survival_rejects_a_nan_time(fitted):
    """A fitted model's cumulative hazard reads 0 at a time that is not
    positive, so a NaN time would pass as survival 1 without the check."""
    with pytest.raises(DomainError, match="nonnegative"):
        marginal_survival(MarginalModel.from_fit(fitted), np.array([np.nan, 1.0]), 1.0)


@pytest.mark.parametrize("theta,x", [(0.25, 0.0), (0.25, 1.0), (0.75, 0.0)])
def test_life_expectancy_exponential_gamma_closed_form(theta, x):
    """For an exponential baseline with Gamma frailty the restricted life
    expectancy has an antiderivative:
    integral (1 + theta c t)^(-1/theta) dt = ((1+theta c tau)^(1-1/theta) - 1)
    / (c (theta - 1)) with c = rate exp(x beta)."""
    sc = make_scenario("exp", "gamma", theta, 20, 150)
    model = MarginalModel.from_scenario(sc)
    tau = 5.0
    c = 0.5 * math.exp(sc.beta * x)
    want = ((1.0 + theta * c * tau) ** (1.0 - 1.0 / theta) - 1.0) / (c * (theta - 1.0))
    got = life_expectancy(model, x, tau)
    assert abs(got - want) <= 1e-6


def test_life_expectancy_unit_variance_log_form():
    # theta = 1: integral (1 + c t)^(-1) dt = log(1 + c tau) / c
    sc = make_scenario("exp", "gamma", 1.0, 20, 150)
    model = MarginalModel.from_scenario(sc)
    c = 0.5
    want = math.log(1.0 + c * 5.0) / c
    assert abs(life_expectancy(model, 0.0, 5.0) - want) <= 1e-6


@pytest.mark.parametrize("n_grid", [1000, 4000])
@pytest.mark.parametrize("horizon", [1.0, 5.0, 7.3])
def test_spline_weights_integrate_the_natural_spline(n_grid, horizon):
    """natural_spline_weights integrates the natural spline on a
    quadratically graded grid and on random grids."""
    rng = np.random.default_rng(n_grid)
    random_grid = np.sort(rng.uniform(0.0, horizon, n_grid))
    random_grid[[0, -1]] = 0.0, horizon
    graded_grid = horizon * np.linspace(0.0, 1.0, n_grid) ** 2
    for grid in (graded_grid, random_grid):
        weights = natural_spline_weights(grid)
        for values in (np.exp(-0.4 * grid) / (1.0 + grid), rng.uniform(size=n_grid)):
            want = CubicSpline(grid, values, bc_type="natural").integrate(0.0, horizon)
            assert abs(weights @ values - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n_grid", [4, 5, 1000, 4000])
def test_spline_weights_equal_the_banded_solve_bit_for_bit(n_grid):
    """The Thomas solve takes LAPACK gtsv's steps in gtsv's order, which
    pivots nowhere on this diagonally dominant system, so the weights equal
    those of scipy's solve_banded (gtsv for one band each side), imported
    here only, to the last bit."""
    from scipy.linalg import solve_banded

    h = np.diff(np.linspace(0.0, 1.0, n_grid) ** 2)
    bands = np.zeros((3, n_grid - 2))
    bands[0, 1:] = bands[2, :-1] = h[1:-1] / 6.0
    bands[1] = (h[:-1] + h[1:]) / 3.0
    z = np.zeros(n_grid)
    z[1:-1] = solve_banded((1, 1), bands, (h[:-1] ** 3 + h[1:] ** 3) / 24.0)
    slope = np.concatenate(([0.0], np.diff(z) / h, [0.0]))
    trapezoid = 0.5 * (np.concatenate(([0.0], h)) + np.concatenate((h, [0.0])))
    assert np.array_equal(natural_spline_weights(np.linspace(0.0, 1.0, n_grid) ** 2),
                          trapezoid - np.diff(slope))


@pytest.mark.parametrize("family", list(FrailtyFamily))
def test_life_expectancy_rejects_non_finite_survival(family):
    """marginal_survival checks every law, so a cumulative hazard that is
    NaN past t = 1 raises QuadratureError from life_expectancy."""
    model = MarginalModel(FrailtySpec(family, 0.25), lambda t, x: np.where(t > 1.0, np.nan, t))
    with pytest.raises(QuadratureError):
        life_expectancy(model, 0.0, 5.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon,error", [(np.inf, DomainError), (1e308, QuadratureError)])
def test_an_infinite_or_overflowing_horizon_raises(fitted, horizon, error):
    """Over an infinite horizon there is no time rule, and over 1e308 its
    weights overflow: life_expectancy, lle and lle_functional raise, instead
    of returning NaN with a warning or an LLE of 0."""
    model = MarginalModel.from_fit(fitted)
    for evaluate in (lambda: life_expectancy(model, 0.0, horizon), lambda: lle(model, horizon),
                     lambda: lle_functional(fitted, horizon)(fitted.trans)):
        with pytest.raises(error, match="horizon"):
            evaluate()


def test_lle_is_exactly_zero_without_treatment_effect():
    sc = make_scenario("wei", "gamma", 0.75, 20, 150, beta=0.0)
    model = MarginalModel.from_scenario(sc)
    assert lle(model, 5.0) == 0.0


def test_lle_sign_for_protective_treatment():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    model = MarginalModel.from_scenario(sc)
    assert lle(model, 5.0) > 0.0


def test_lle_grid_doubling_stability():
    sc = make_scenario("ww1", "mixturenormal", 0.75, 20, 150)
    model = MarginalModel.from_scenario(sc)
    v1 = lle(model, 5.0, n_grid=16)
    v2 = lle(model, 5.0, n_grid=32)
    assert abs(v2 - v1) <= 1e-12


def test_true_estimands_values_and_caching():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    beta, true_lle = true_estimands(sc)
    assert beta == sc.beta
    assert 0.0 < true_lle < 5.0
    assert true_estimands(sc) is true_estimands(sc)


def test_every_study_truth_matches_tanh_sinh():
    """The 45 distinct study truths (the two cluster sizes of a scenario
    share theirs) equal the LLE by tanh-sinh of the same marginal model to
    1e-12 (measured at most 7.8e-16)."""
    scenarios = [sc for sc in scenario_grid() if sc.cluster_size == 2]
    assert len(scenarios) == 45
    for sc in scenarios:
        want = tanh_sinh_lle(MarginalModel.from_scenario(sc), sc.censor_time, tol=1e-14)
        assert abs(true_estimands(sc)[1] - want) <= 1e-12


@pytest.fixture(scope="module")
def fitted():
    sc = make_scenario("exp", "gamma", 0.25, 100, 20)
    data = generate_dataset(sc, 314)
    return fit(model_from_id("exp_gamma"), data)


def central_gradient(functional, rel_step=1e-5):
    """Oracle: the gradient of functional by central differences, step
    rel_step (1 + |x|), divided by the realized step so that a linear map
    differentiates exactly."""

    def gradient(point):
        grad = np.empty_like(point)
        for k in range(point.size):
            h = rel_step * (1.0 + abs(point[k]))
            up = point.copy()
            up[k] += h
            dn = point.copy()
            dn[k] -= h
            grad[k] = (functional(up) - functional(dn)) / (up[k] - dn[k])
        return grad

    return gradient


def test_delta_method_linear_functional_is_exact(fitted):
    idx = fitted.beta_index
    se = delta_method_se(fitted, central_gradient(lambda trans: trans[idx])(fitted.trans))
    assert se == fitted.se_trans[idx]


def test_delta_method_exp_functional(fitted):
    idx = fitted.beta_index
    se = delta_method_se(fitted,
                         central_gradient(lambda trans: math.exp(trans[idx]))(fitted.trans))
    want = math.exp(fitted.beta_hat) * fitted.beta_se
    assert abs(se - want) <= 1e-6 * want


def test_delta_method_requires_usable_covariance(fitted):
    unit = np.eye(fitted.trans.size)[0]
    missing = dataclasses.replace(fitted, cov_trans=None)
    with pytest.raises(EstimandError):
        delta_method_se(missing, unit)


@pytest.mark.parametrize("model_id", [f"{base}_{frailty}" for base in ("exp", "wei", "gom")
                                      for frailty in ("gamma", "lognormal")])
def test_lle_functional_evaluates_at_the_optimum(model_id):
    """The one-pass LLE and lle() on MarginalModel.from_fit take the same
    cluster kernel on the same nodes, so they differ only by the order of
    their sums: to 1e-15 (measured at most 4.4e-16)."""
    data = generate_dataset(make_scenario("exp", "gamma", 0.25, 100, 20), 314)
    fitted = fit(model_from_id(model_id), data)
    val, grad = lle_functional(fitted, 5.0)(fitted.trans)
    direct = lle(MarginalModel.from_fit(fitted), 5.0)
    assert abs(val - direct) <= 1e-15
    se = delta_method_se(fitted, grad)
    assert 0.0 < se < 1.0


def _lle_and_se(result, horizon):
    value, grad = lle_functional(result, horizon)(result.trans)
    return value, delta_method_se(result, grad)


def test_rp_lle_rows_follow_the_values_of_the_fit():
    """An rp fit's LLE rows are those of its own basis and to_raw, whatever
    the cache holds. A result rebuilt field by field from a fit gives the
    fit's LLE and SE bit for bit. The same model on the raw spline columns
    (to_raw the identity, trans and cov_trans mapped by the fit's to_raw)
    gives them to 1e-12 (measured 1.8e-15) while the fit's rows are cached,
    and bit for bit
    what rows built afresh for it give."""
    sc = make_scenario("ww1", "gamma", 0.5, 20, 50)
    result = fit(model_from_id("rp3_gamma"), generate_dataset(sc, 11))
    assert result.converged
    horizon = sc.censor_time
    estimands._lle_grid.cache_clear()
    want = _lle_and_se(result, horizon)

    names = ("spec", "params", "trans", "loglik", "converged", "se_trans", "se_natural",
             "cov_trans", "grad_inf_norm", "condition_number", "n_evaluations",
             "n_iterations", "n_obs", "message", "to_raw")
    rebuilt = fitting.FitResult(**{name: getattr(result, name) for name in names})
    assert _lle_and_se(rebuilt, horizon) == want

    m = result.to_raw
    raw = dataclasses.replace(result, to_raw=np.eye(result.n_params), trans=m @ result.trans,
                              cov_trans=m @ result.cov_trans @ m.T)
    got = _lle_and_se(raw, horizon)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    estimands._lle_grid.cache_clear()
    assert _lle_and_se(raw, horizon) == got
    estimands._lle_grid.cache_clear()


def test_marginal_model_from_fit_matches_fitted_survival(fitted):
    model = MarginalModel.from_fit(fitted)
    rate = fitted.params.natural_vector()[0]
    theta = fitted.frailty_var_hat
    t = 2.5
    want = (1.0 + theta * rate * t) ** (-1.0 / theta)
    assert abs(marginal_survival(model, t, 0.0) - want) <= 1e-10


@pytest.mark.parametrize("model_id", ["exp_gamma", "exp_lognormal"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lle_takes_the_zero_survival_limit_where_the_hazard_overflows(model_id):
    """exp(log rate + beta) overflows, so the treated arm's H is inf at every
    t > 0 and its survival is 0 with zero derivatives: the LLE is exactly
    -LE(untreated), and its gradient is that of -LE(untreated) by central
    differences."""
    data = generate_dataset(make_scenario("exp", "gamma", 0.25, 100, 20), 314)
    fitted = fit(model_from_id(model_id), data)
    vec = np.array([0.0, 710.0, math.log(2.0)])

    def reference(v):
        untreated = marginal_model(params_from_trans(fitted, v))
        return -life_expectancy(untreated, 0, 5.0)

    want = reference(vec)
    value, grad = lle_functional(fitted, 5.0)(vec)
    assert abs(value - want) <= 1e-12 * abs(want)
    cd = central_gradient(reference)(vec)
    assert cd[1] == 0.0
    assert np.max(np.abs(grad - cd)) <= 1e-6 * np.max(np.abs(cd))
