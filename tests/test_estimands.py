"""Tests for marginal survival, life expectancy, and delta-method SEs."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

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
from frailsim.exceptions import EstimandError, QuadratureError
from frailsim.fitting import ModelParams, fit, model_from_id
from frailsim.hazards import FrailtyFamily, FrailtySpec
from frailsim.simulate import generate_dataset, make_scenario


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


@pytest.mark.parametrize("family", [FrailtyFamily.LOG_NORMAL, FrailtyFamily.MIXTURE_NORMAL])
def test_normal_frailty_marginal_survival_rejects_infinite_hazard(family):
    model = MarginalModel(FrailtySpec(family, 0.5),
                          lambda t, x: np.where(t > 1.0, np.inf, t))
    with pytest.raises(QuadratureError):
        marginal_survival(model, np.array([0.5, 2.0]), 0.0)


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
    v1 = lle(model, 5.0, n_grid=1000)
    v2 = lle(model, 5.0, n_grid=2000)
    assert abs(v2 - v1) <= 1e-6


def test_true_estimands_values_and_caching():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    beta, true_lle = true_estimands(sc)
    assert beta == sc.beta
    assert 0.0 < true_lle < 5.0
    assert true_estimands(sc) is true_estimands(sc)


@pytest.fixture(scope="module")
def fitted():
    sc = make_scenario("exp", "gamma", 0.25, 100, 20)
    data = generate_dataset(sc, 314)
    return fit(model_from_id("exp_gamma"), data)


def test_delta_method_linear_functional_is_exact(fitted):
    idx = fitted.beta_index
    se = delta_method_se(fitted, lambda trans: trans[idx])
    assert se == fitted.se_trans[idx]


def test_delta_method_exp_functional(fitted):
    idx = fitted.beta_index
    se = delta_method_se(fitted, lambda trans: math.exp(trans[idx]))
    want = math.exp(fitted.beta_hat) * fitted.beta_se
    assert abs(se - want) <= 1e-6 * want


def test_delta_method_requires_usable_covariance(fitted):
    broken = dataclasses.replace(fitted, hessian_pd=False)
    with pytest.raises(EstimandError):
        delta_method_se(broken, lambda trans: trans[0])
    missing = dataclasses.replace(fitted, cov_trans=None)
    with pytest.raises(EstimandError):
        delta_method_se(missing, lambda trans: trans[0])


def test_lle_functional_evaluates_at_the_optimum(fitted):
    functional = lle_functional(fitted, 5.0)
    val = functional(fitted.trans)
    direct = lle(MarginalModel.from_fit(fitted), 5.0)
    assert abs(val - direct) <= 1e-10
    se = delta_method_se(fitted, functional)
    assert 0.0 < se < 1.0


def test_marginal_model_from_fit_matches_fitted_survival(fitted):
    model = MarginalModel.from_fit(fitted)
    rate = fitted.params.natural_vector()[0]
    theta = fitted.frailty_var_hat
    t = 2.5
    want = (1.0 + theta * rate * t) ** (-1.0 / theta)
    assert abs(marginal_survival(model, t, 0.0) - want) <= 1e-10
