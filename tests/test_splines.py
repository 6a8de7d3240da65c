"""Tests for restricted cubic spline bases and the natural-spline integral."""
from __future__ import annotations

import numpy as np
import pytest

from frailsim.exceptions import DomainError, FitSetupError
from frailsim.splines import (
    ALLOWED_DF,
    SplineBasis,
    basis_derivative,
    basis_eval,
    interp_integrate,
    natural_spline_weights,
    place_knots,
)


def test_place_knots_centile_positions():
    # type-7 quantiles of 5 points at probs 1/3, 2/3: linear interpolation
    # with h = (n - 1) p gives 4/3 and 8/3
    basis = place_knots(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 3)
    np.testing.assert_allclose(basis.interior_knots, [4.0 / 3.0, 8.0 / 3.0])
    assert basis.boundary_knots == (0.0, 4.0)


@pytest.mark.parametrize("df,n_interior", [(3, 2), (5, 4), (9, 8)])
def test_place_knots_interior_count(df, n_interior):
    z = np.linspace(-1.0, 2.0, 50)
    basis = place_knots(z, df)
    assert basis.interior_knots.shape == (n_interior,)
    assert basis.df == df
    lo, hi = basis.boundary_knots
    assert lo == -1.0 and hi == 2.0
    assert np.all(basis.interior_knots > lo)
    assert np.all(basis.interior_knots < hi)


def test_place_knots_deduplicates_before_quantiles():
    tied = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    unique = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    a = place_knots(tied, 3)
    b = place_knots(unique, 3)
    np.testing.assert_array_equal(a.interior_knots, b.interior_knots)
    assert a.boundary_knots == b.boundary_knots


def test_place_knots_needs_enough_distinct_values():
    with pytest.raises(FitSetupError):
        place_knots(np.array([1.0, 1.0, 2.0, 2.0, 3.0]), 3)


def test_place_knots_rejects_non_finite():
    with pytest.raises(FitSetupError):
        place_knots(np.array([0.0, 1.0, 2.0, np.nan, 4.0]), 3)


@pytest.mark.parametrize("df", [2, 4, 6, 10])
def test_place_knots_rejects_unsupported_df(df):
    assert df not in ALLOWED_DF
    with pytest.raises(ValueError):
        place_knots(np.linspace(0.0, 1.0, 30), df)


@pytest.fixture
def basis():
    return place_knots(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), 3)


def test_first_basis_column_is_identity(basis):
    z = np.array([-2.0, 0.0, 1.3, 4.0, 6.5])
    B = basis_eval(basis, z)
    assert B.shape == (5, 3)
    np.testing.assert_array_equal(B[:, 0], z)
    np.testing.assert_array_equal(basis_derivative(basis, z)[:, 0], np.ones(5))


def test_basis_derivative_matches_finite_differences(basis):
    z = np.array([0.5, 1.7, 2.9, 3.5])
    h = 1e-6
    fd = (basis_eval(basis, z + h) - basis_eval(basis, z - h)) / (2 * h)
    np.testing.assert_allclose(basis_derivative(basis, z), fd, atol=1e-6)


def test_basis_is_linear_beyond_boundary_knots(basis):
    """Natural restriction: beyond the boundary knots every column reduces
    to a straight line, so second differences vanish and the derivative
    is constant."""
    for z in (np.array([5.0, 6.0, 7.0]), np.array([-3.0, -2.0, -1.0])):
        B = basis_eval(basis, z)
        second_diff = B[2] - 2.0 * B[1] + B[0]
        np.testing.assert_allclose(second_diff, 0.0, atol=1e-10)
        Bd = basis_derivative(basis, z)
        np.testing.assert_allclose(Bd[0], Bd[2], atol=1e-12)


def test_basis_eval_accepts_scalars(basis):
    row = basis_eval(basis, 1.5)
    B = basis_eval(basis, np.array([1.5]))
    np.testing.assert_array_equal(np.atleast_2d(row), B)


def test_spline_basis_validates_knot_ordering():
    with pytest.raises(ValueError):
        SplineBasis(np.array([2.0, 1.0]), (0.0, 4.0))
    with pytest.raises(ValueError):
        SplineBasis(np.array([5.0]), (0.0, 4.0))


def test_interp_integrate_linear_exact_on_coarse_grid():
    # natural end conditions are exact for straight lines on any grid
    t = np.array([0.0, 1.0, 3.0, 7.0, 10.0])
    assert abs(interp_integrate(t, 2.0 * t + 1.0, 0.0, 10.0) - 110.0) <= 1e-12


def test_interp_integrate_cubic_on_dense_grid():
    t = np.linspace(0.0, 10.0, 2001)
    exact = 10.0**4 / 4.0
    assert abs(interp_integrate(t, t**3, 0.0, 10.0) - exact) <= 1e-6 * exact


def test_interp_integrate_matches_scipy_on_non_uniform_grids():
    """An oracle: scipy's natural CubicSpline, imported here only."""
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(20)
    for n in (4, 5, 9, 100, 1000, 4000):
        for _ in range(5):
            t = np.cumsum(rng.uniform(0.01, 1.0, n)) * rng.uniform(0.1, 10.0)
            values = rng.uniform(size=n) + np.exp(-t)
            want = CubicSpline(t, values, bc_type="natural").integrate(t[0], t[-1])
            got = interp_integrate(t, values, t[0], t[-1])
            assert abs(got - want) <= 1e-12 * abs(want), n


def test_natural_spline_weights_need_four_points():
    with pytest.raises(DomainError):
        natural_spline_weights([0.0, 1.0, 2.0])


@pytest.mark.parametrize("times", [
    [0.0, 2.0, 1.0, 3.0],
    [0.0, 1.0, 1.0, 3.0],
    [0.0, 1.0, np.inf, 3.0],
    [[0.0, 1.0], [2.0, 3.0]],
])
def test_natural_spline_weights_need_increasing_finite_abscissae(times):
    with pytest.raises(DomainError):
        natural_spline_weights(times)


def test_interp_integrate_rejects_bad_values():
    t = np.linspace(0.0, 5.0, 20)
    with pytest.raises(DomainError):
        interp_integrate(t, np.exp(-t[:-1]), 0.0, 5.0)
    with pytest.raises(DomainError):
        interp_integrate(t, np.where(t > 2.0, np.nan, 1.0), 0.0, 5.0)


@pytest.mark.parametrize("a,b", [(-1.0, 5.0), (0.0, 5.5), (0.5, 5.0), (0.0, 3.0)])
def test_interp_integrate_only_over_the_whole_range(a, b):
    t = np.linspace(0.0, 5.0, 20)
    with pytest.raises(DomainError):
        interp_integrate(t, np.exp(-t), a, b)


def test_interp_integrate_matches_exponential_decay():
    t = np.linspace(0.0, 10.0, 2001)
    got = interp_integrate(t, np.exp(-0.3 * t), 0.0, 10.0)
    want = (1.0 - np.exp(-3.0)) / 0.3
    assert abs(got - want) <= 1e-9 * want


def test_interp_integrate_grid_refinement_stability():
    """Integrating a survival-like curve from 250 and 1000 grid points
    agrees to 1e-6 relative, the contract that lets the outer
    life-expectancy integral trust a finite evaluation grid."""

    def survival(t):
        return (1.0 + 0.25 * 0.5 * t) ** (-4.0)

    a, b = 0.0, 5.0
    results = []
    for n in (250, 1000):
        t = np.linspace(a, b, n)
        results.append(interp_integrate(t, survival(t), a, b))
    assert abs(results[1] - results[0]) <= 1e-6 * max(1.0, abs(results[1]))
