"""Tests for baseline hazard families and frailty distributions."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from frailsim.exceptions import DomainError, NumericError
from frailsim.hazards import (
    Exponential,
    FrailtyFamily,
    FrailtySpec,
    Gompertz,
    Weibull,
    WeibullMixture,
)

from oracles import gamma_marginal_survival

# The five study baselines.
EXP = Exponential(0.5)
WEI = Weibull(0.5, 0.8)
GOM = Gompertz(0.5, 0.2)
WW1 = WeibullMixture(0.3, 1.5, 0.5, 2.5, 0.7)
WW2 = WeibullMixture(0.5, 1.3, 0.5, 0.7, 0.5)

ALL_BASELINES = [EXP, WEI, GOM, WW1, WW2]


def test_exponential_closed_forms():
    t = np.array([2.0])
    assert EXP.cumulative_hazard(t)[0] == 1.0
    assert EXP.hazard(t)[0] == 0.5
    assert EXP.inverse_cumulative_hazard(np.array([1.0]))[0] == 2.0


def test_weibull_closed_forms():
    # H(t) = 0.5 t^0.8
    t = np.array([1.0])
    assert WEI.cumulative_hazard(t)[0] == 0.5
    assert abs(WEI.hazard(t)[0] - 0.4) <= 1e-15
    assert abs(WEI.inverse_cumulative_hazard(np.array([0.5]))[0] - 1.0) <= 1e-12


def test_gompertz_closed_forms():
    # H(t) = (0.5 / 0.2) (e^{0.2 t} - 1)
    t = np.array([5.0])
    want = 2.5 * (math.e - 1.0)
    assert abs(GOM.cumulative_hazard(t)[0] - want) <= 1e-14
    assert abs(GOM.hazard(t)[0] - 0.5 * math.e) <= 1e-14


def test_mixture_equal_rates_collapse():
    # with both rates 0.5 at t = 1 the mixture survival is e^{-0.5}
    # regardless of the shapes, so H(1) = 0.5 and the inverse recovers 1
    assert abs(WW2.cumulative_hazard(np.array([1.0]))[0] - 0.5) <= 1e-14
    assert abs(WW2.inverse_cumulative_hazard(np.array([0.5]))[0] - 1.0) <= 1e-10


def test_mixture_log_space_far_tail():
    # far out, the slower-growing component dominates:
    # H(t) -> 0.3 t^1.5 - log(0.7)
    t = 1000.0
    got = WW1.cumulative_hazard(np.array([t]))[0]
    want = 0.3 * t**1.5 - math.log(0.7)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("baseline,shape", [(WW1, 1.5), (WW2, 0.7)], ids=["ww1", "ww2"])
def test_mixture_slope_far_out_is_the_slower_component_shape(baseline, shape):
    """Far out S0 is the slower component's survival, so d log H0 / d log t
    tends to its shape. Above a cumulative hazard of about 1e16, cumhaz -
    h_i rounds log(1 - mix) away, and ww2's slope read 0.35 instead of 0.7;
    such targets now invert."""
    t = np.array([1e25, 1e28])
    log_cumhaz, slope = baseline._log_cumhaz_and_slope(t)
    assert np.all(np.abs(slope - shape) <= 1e-12)
    targets = np.array([1e16, 1e20, 1e30])
    got = baseline.cumulative_hazard(baseline.inverse_cumulative_hazard(targets))
    np.testing.assert_allclose(got, targets, rtol=1e-10)


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_hazard_is_derivative_of_cumulative_hazard(baseline):
    t = np.array([0.3, 0.9, 1.7, 3.2, 4.8])
    h = 1e-6
    fd = (baseline.cumulative_hazard(t + h) - baseline.cumulative_hazard(t - h)) / (2 * h)
    np.testing.assert_allclose(baseline.hazard(t), fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("baseline", ALL_BASELINES)
@pytest.mark.parametrize("u", [1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
def test_inverse_round_trip(baseline, u):
    t = baseline.inverse_cumulative_hazard(np.array([u]))
    got = baseline.cumulative_hazard(t)[0]
    assert abs(got - u) <= 1e-10 * max(1.0, u)


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_cumulative_hazard_rejects_negative_times(baseline):
    with pytest.raises(DomainError):
        baseline.cumulative_hazard(np.array([-0.1]))


def test_unbounded_hazard_at_zero_rejected():
    with pytest.raises(DomainError):
        WEI.hazard(np.array([0.0]))
    with pytest.raises(DomainError):
        WW2.hazard(np.array([0.0]))
    # shapes > 1 on both components: hazard at 0 is well defined
    assert WW1.hazard(np.array([0.0]))[0] == 0.0


def _mixture_cumhaz_series(b, t):
    """-log(1 - q) at small t from power series, with q = 1 - S0 expanded
    per component: q = sum_i w_i (H_i - H_i**2/2! + ...)."""
    q = 0.0
    for w, rate, shape in ((b.mix, b.rate1, b.shape1), (1.0 - b.mix, b.rate2, b.shape2)):
        h = rate * t**shape
        q += w * math.fsum((-1.0) ** (k + 1) * h**k / math.factorial(k) for k in range(1, 12))
    return math.fsum(q**k / k for k in range(1, 12))


@pytest.mark.parametrize("baseline", [WW1, WW2], ids=["ww1", "ww2"])
@pytest.mark.parametrize("target", [1e-20, 1e-16, 1e-12, 1e-8, 1e-3])
def test_mixture_inversion_of_small_targets(baseline, target):
    """Relative precision where an absolute residual test passes anything:
    H0 at the returned time is the target to 1e-12 and its power series
    to 1e-14, and no step raises (ww2's hazard is unbounded at t = 0) or
    warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = baseline.inverse_cumulative_hazard(np.array([target]))
        got = baseline.cumulative_hazard(t)[0]
    assert t[0] > 0
    assert abs(got / target - 1.0) <= 1e-12
    assert abs(got / _mixture_cumhaz_series(baseline, t[0]) - 1.0) <= 1e-14


@pytest.mark.parametrize("t", [1e-300, 1e-250, 1e-215, 1e-210])
def test_mixture_hazard_where_the_cumulative_hazard_is_subnormal_or_underflows(t):
    """Below about t = 2e-205 ww1's H0 is subnormal, and below about 1e-216
    both component H underflow to 0, so that log H0 is -inf and its slope
    0/0 (the slope read 2.0 instead of 1.5 at 1e-215); the hazard is then the
    small-t limit sum_i w_i rate_i shape_i t**(shape_i - 1), about
    3.15e-151 at 1e-300."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = WW1.hazard(t)
        array = WW1.hazard(np.array([t, 1.0]))
    want = 0.7 * 0.3 * 1.5 * t**0.5 + 0.3 * 0.5 * 2.5 * t**1.5
    assert abs(got / want - 1.0) <= 1e-14
    assert array[0] == got and array[1] == WW1.hazard(1.0)


@pytest.mark.parametrize("baseline", [WW1, WW2], ids=["ww1", "ww2"])
def test_mixture_hazard_meets_its_small_t_limit(baseline):
    """At t = 1e-150, where log H0 is still finite, the kernel's hazard
    agrees with the weighted component hazards to 1e-12."""
    t = 1e-150
    limit = math.fsum(w * rate * shape * t ** (shape - 1.0) for w, rate, shape in (
        (baseline.mix, baseline.rate1, baseline.shape1),
        (1.0 - baseline.mix, baseline.rate2, baseline.shape2)))
    assert abs(baseline.hazard(t) / limit - 1.0) <= 1e-12


def test_mixture_inversion_rejects_unreachable_target():
    with pytest.raises(NumericError):
        WW1.inverse_cumulative_hazard(np.array([1e100]))


@pytest.mark.parametrize(
    "ctor,args",
    [
        (Exponential, (0.0,)),
        (Exponential, (-1.0,)),
        (Weibull, (0.5, 0.0)),
        (Weibull, (-0.5, 0.8)),
        (Gompertz, (0.0, 0.2)),
        (Gompertz, (0.5, np.inf)),
        (WeibullMixture, (0.3, 1.5, 0.5, 2.5, 0.0)),
        (WeibullMixture, (0.3, 1.5, 0.5, 2.5, 1.0)),
        (WeibullMixture, (0.0, 1.5, 0.5, 2.5, 0.5)),
    ],
)
def test_constructor_validation(ctor, args):
    with pytest.raises(ValueError):
        ctor(*args)


def test_negative_gompertz_gamma_allowed():
    # decreasing hazards are part of the family; H stays finite and bounded
    g = Gompertz(0.5, -0.2)
    H = g.cumulative_hazard(np.array([1.0, 10.0, 100.0]))
    assert np.all(np.diff(H) > 0)
    assert H[-1] < 0.5 / 0.2  # the asymptote rate/|gamma|


def test_gamma_frailty_moments():
    spec = FrailtySpec(FrailtyFamily.GAMMA, 0.75)
    rng = np.random.default_rng(20240917)
    draws = spec.sample(rng, 1_000_000)
    assert np.all(draws > 0)
    assert abs(draws.mean() - 1.0) <= 0.005
    assert abs(draws.var() - 0.75) <= 0.01


def test_lognormal_frailty_log_scale_moments():
    # alpha = exp(eta) with eta ~ N(0, theta)
    spec = FrailtySpec(FrailtyFamily.LOG_NORMAL, 0.75)
    rng = np.random.default_rng(20240917)
    eta = np.log(spec.sample(rng, 1_000_000))
    assert abs(eta.mean()) <= 0.005
    assert abs(eta.var() - 0.75) <= 0.01


def test_mixture_normal_frailty_log_scale_moments():
    """Two Normal components at -3 sqrt(theta) and +3 sqrt(theta), each with
    variance theta and weight 1/2: the log-frailty mean is 0 and the total
    log-scale variance is 9 theta + theta = 10 theta."""
    spec = FrailtySpec(FrailtyFamily.MIXTURE_NORMAL, 0.25)
    rng = np.random.default_rng(20240917)
    eta = np.log(spec.sample(rng, 1_000_000))
    assert abs(eta.mean()) <= 0.01
    assert abs(eta.var() - 2.5) <= 0.05


def test_frailty_components_are_weights_and_log_means():
    """Every law's component weights sum to 1; the mixture's log-means are
    -3 sigma and +3 sigma, and Gamma and log-Normal are each the single
    component (1.0, 0.0)."""
    for family in FrailtyFamily:
        weights = [weight for weight, _ in FrailtySpec(family, 0.25).components]
        assert math.fsum(weights) == 1.0
    mixture = FrailtySpec(FrailtyFamily.MIXTURE_NORMAL, 0.25).components
    assert mixture == ((0.5, -1.5), (0.5, 1.5))
    for family in (FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL):
        assert FrailtySpec(family, 0.25).components == ((1.0, 0.0),)


def test_frailty_spec_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        FrailtySpec(FrailtyFamily.GAMMA, 0.0)
    with pytest.raises(ValueError):
        FrailtySpec(FrailtyFamily.LOG_NORMAL, -0.5)


def test_sample_frailty_is_deterministic_per_seed():
    spec = FrailtySpec(FrailtyFamily.MIXTURE_NORMAL, 0.75)
    a = spec.sample(np.random.default_rng(7), 100)
    b = spec.sample(np.random.default_rng(7), 100)
    np.testing.assert_array_equal(a, b)


def test_gamma_marginal_survival_closed_form():
    # (1 + theta H)^(-1/theta)
    assert abs(gamma_marginal_survival(2.0, 0.5) - 0.25) <= 1e-15
    assert gamma_marginal_survival(0.0, 0.5) == 1.0


def test_gamma_marginal_survival_small_variance_limit():
    # as theta -> 0 the marginal tends to exp(-H)
    H = 1.3
    got = gamma_marginal_survival(H, 1e-12)
    assert abs(got - math.exp(-H)) <= 1e-9


def test_gamma_marginal_survival_validation():
    with pytest.raises(DomainError):
        gamma_marginal_survival(1.0, 0.0)
    with pytest.raises(DomainError):
        gamma_marginal_survival(-0.5, 0.5)
