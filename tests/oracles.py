"""Independent oracles the tests check the package against.

tanh_sinh integrates a function on a finite interval to high accuracy,
for closed forms that have none; cluster_rng is one cluster's own random
stream, as a generator per cluster, against which the re-keyed generator
of generate_dataset is checked; ziggurat_tables reads the tables of
numpy's standard normal sampler off the installed numpy;
gamma_marginal_survival is the Gamma law's marginal survival in closed
form; params_from_trans maps a fit's optimizer-scale vector to
natural-scale parameters; conditional_pieces evaluates a model's hazard
and cumulative hazard from its natural parameters with the hazards classes
and the raw spline basis, and marginal_model averages that
cumulative hazard over the frailty, against which the likelihood's own
log-scale rows and lle_functional are checked. rule_lle integrates that
model's LLE on the nodes of lle_functional's time rule, split at the knot
times of an rp basis (knot_times), and tanh_sinh_lle integrates it by
tanh_sinh, piece by piece between given break times. filter_convergence
and performance are the harness's outlier rule and cell summary, one cell
at a time with 1-D numpy calls, against which the harness's stacked cells
are checked.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from frailsim.estimands import (
    DEFAULT_GRID,
    Z95,
    MarginalModel,
    _time_rule,
    marginal_survival,
)
from frailsim.exceptions import DomainError, QuadratureError
from frailsim.fitting import FitResult, ModelParams, ModelSpec, unpack_params
from frailsim.harness import FILTER_CUTOFF, PerformanceSummary, ReplicationRecord
from frailsim.hazards import Exponential, FrailtySpec, Gompertz, Weibull
from frailsim.simulate import _cluster_keys
from frailsim.splines import basis_derivative, basis_eval


def cluster_rng(seed: int, scenario_id: str, cluster_index: int) -> np.random.Generator:
    """The dedicated random stream of one cluster of one dataset."""
    key = _cluster_keys(seed, scenario_id, [cluster_index])[0]
    return np.random.Generator(np.random.Philox(key=key))


def ziggurat_tables() -> tuple[list[float], list[int]]:
    """numpy's ziggurat tables wi (256 doubles) and ki (256 integers), read
    off its standard normal sampler.

    The sampler takes one 64-bit word w: idx = w & 0xff, sign = bit 8 and
    rabs = (w >> 9) & (2**52 - 1); it returns the normal +-rabs * wi[idx]
    from that word alone iff rabs < ki[idx]. An SFC64 in state (w, 0, 0, 0)
    outputs w first, then 1, a word whose double is 0, so:
    - wi[i] is the normal of the word with idx i and rabs 1. Where ki[i] is
      at most 1 the double 0 takes it through the wedge test, which accepts
      x = wi[i] as well;
    - ki[i] is the least rabs whose word does not decide its normal alone,
      which the SFC64 counter shows, found by bisection.
    """
    bit_generator = np.random.SFC64()
    rng = np.random.Generator(bit_generator)

    def normal(word):
        bit_generator.state = {
            "bit_generator": "SFC64",
            "state": {"state": np.array([word, 0, 0, 0], dtype=np.uint64)},
            "has_uint32": 0,
            "uinteger": 0,
        }
        x = rng.standard_normal()
        return x, int(bit_generator.state["state"]["state"][3])

    wi, ki = [], []
    for i in range(256):
        wi.append(normal((1 << 9) | i)[0])
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if normal((mid << 9) | i)[1] == 1:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


def gamma_marginal_survival(cumulative_hazard, variance: float):
    """Population-averaged survival (1 + variance * H)**(-1/variance).

    This is the Laplace transform of a mean-one Gamma frailty evaluated at H,
    computed on the log scale so large H stays accurate.
    """
    if not variance > 0:
        raise DomainError(f"variance must be positive, got {variance}")
    H = np.asarray(cumulative_hazard, dtype=float)
    if np.isnan(H).any() or (H < 0).any():
        raise DomainError("cumulative hazard must be nonnegative")
    vals = np.exp(-np.log1p(variance * H) / variance)
    return float(vals) if vals.ndim == 0 else vals


def params_from_trans(result: FitResult, vec: np.ndarray) -> ModelParams:
    """Natural-scale parameters of a fit at an optimizer-scale vector."""
    return unpack_params(result.spec, result.to_raw @ np.asarray(vec, dtype=float),
                         basis=result.params.basis)


_BASELINES = {"exp": Exponential, "wei": Weibull, "gom": Gompertz}


def conditional_pieces(spec: ModelSpec, params: ModelParams, t, x):
    """Conditional (frailty = 1) hazard and cumulative hazard at (t, x).

    The exp, wei and gom baselines are the hazards classes built from
    params.baseline, times exp(x beta); a rate or shape that is not positive
    and finite raises the class's ValueError. For the rp baseline the
    returned hazard carries the sign of the spline slope, so a nonpositive
    slope shows up as h <= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr <= 0).any():
        raise DomainError("times must be positive")
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), t_arr.shape)
    xb = x_arr * params.beta
    if spec.baseline == "rp":
        z = np.log(t_arr)
        coef = params.baseline[1:]
        s = params.baseline[0] + basis_eval(params.basis, z) @ coef
        sp = basis_derivative(params.basis, z) @ coef
        H = np.exp(s + xb)
        h = sp * H / t_arr
    else:
        baseline = _BASELINES[spec.baseline](*params.baseline)
        ratio = np.exp(xb)
        h = baseline.hazard(t_arr) * ratio
        H = baseline.cumulative_hazard(t_arr) * ratio
    if scalar:
        return float(h[0]), float(H[0])
    return h, H


def marginal_model(params: ModelParams) -> MarginalModel:
    """The MarginalModel of natural-scale parameters: conditional_pieces'
    cumulative hazard, 0 at t = 0, under the spec's frailty."""
    def cumhaz(t: np.ndarray, x: float) -> np.ndarray:
        positive = t > 0
        out = np.zeros_like(t)
        if positive.any():
            out[positive] = conditional_pieces(params.spec, params, t[positive], x)[1]
        return out

    return MarginalModel(
        frailty=FrailtySpec(params.spec.frailty, params.frailty_var),
        cumulative_hazard=cumhaz,
        gh_nodes=params.spec.gh_nodes,
    )


def knot_times(basis) -> tuple[float, ...]:
    """The times e^k of every knot of an rp basis, interior and boundary;
    none without a basis."""
    if basis is None:
        return ()
    knots = list(basis.interior_knots) + list(basis.boundary_knots)
    return tuple(float(np.exp(k)) for k in knots)


def rule_lle(params: ModelParams, horizon: float) -> float:
    """The LLE of marginal_model(params) over [0, horizon] on the nodes and
    weights of estimands._time_rule split at knot_times(params.basis), with
    DEFAULT_GRID nodes per panel: the nodes lle_functional integrates on."""
    model = marginal_model(params)
    t, w = _time_rule(horizon, knot_times(params.basis), DEFAULT_GRID)
    return float(w @ (marginal_survival(model, t, 1.0) - marginal_survival(model, t, 0.0)))


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

    The stop rule can pass before any node lands on a narrow peak inside a
    wide interval, and the estimate is then wrong without an error: at tol
    1e-14, a log-Normal mixture density times exp(-e^eta H) over mean +- 12
    sd read 1e-7 off. Split the interval at the peak and integrate the
    pieces apart.
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


def tanh_sinh_lle(
    model: MarginalModel,
    horizon: float,
    breaks: tuple[float, ...] = (),
    tol: float = 1e-13,
) -> float:
    """The integral of S(t | x = 1) - S(t | x = 0) over [0, horizon] by
    tanh_sinh, split at each of the break times inside the horizon, where
    the integrand is not smooth."""
    def integrand(t):
        return marginal_survival(model, t, 1.0) - marginal_survival(model, t, 0.0)

    edges = [0.0, *sorted(b for b in breaks if 0.0 < b < horizon), horizon]
    return sum(tanh_sinh(integrand, a, b, tol=tol) for a, b in zip(edges[:-1], edges[1:]))


def _robust_z(values: np.ndarray) -> np.ndarray:
    med, q1, q3 = np.quantile(values, [0.5, 0.25, 0.75], method="linear").tolist()
    iqr = q3 - q1
    if iqr == 0.0:
        return np.zeros_like(values)
    return (values - med) / iqr


def filter_convergence(records: Sequence[ReplicationRecord]) -> list[ReplicationRecord]:
    """The harness's outlier rule, cell by cell: among each (scenario,
    model, estimand) cell's converged records, one whose estimate or SE lies
    more than FILTER_CUTOFF IQRs from the median is filtered, and a cell
    whose IQR is 0 filters nothing."""
    groups: dict[tuple, list[int]] = {}
    for idx, rec in enumerate(records):
        if rec.converged:
            groups.setdefault((rec.scenario_id, rec.model_id, rec.estimand), []).append(idx)
    out = [replace(rec, filtered=False) for rec in records]
    for indices in groups.values():
        if len(indices) < 2:
            continue
        est = np.array([records[i].estimate for i in indices])
        se = np.array([records[i].se for i in indices])
        flag = ((np.abs(_robust_z(est)) > FILTER_CUTOFF)
                | (np.abs(_robust_z(se)) > FILTER_CUTOFF))
        for i, flagged in zip(indices, flag):
            if flagged:
                out[i] = replace(out[i], filtered=True)
    return out


def performance(records: Sequence[ReplicationRecord], truth: float) -> PerformanceSummary:
    """Bias, coverage and MSE, each with its MCSE, of one cell's converged
    and unfiltered records, at least two of them."""
    used = [r for r in records if r.converged and not r.filtered]
    n = len(used)
    assert n >= 2
    est = np.array([r.estimate for r in used])
    se = np.array([r.se for r in used])
    inside = (est - Z95 * se <= truth) & (truth <= est + Z95 * se)
    coverage = float(inside.mean())
    sq_err = (est - truth) ** 2
    return PerformanceSummary(
        scenario_id=records[0].scenario_id,
        model_id=records[0].model_id,
        estimand=records[0].estimand,
        n_used=n,
        bias=float(est.mean() - truth),
        bias_mcse=float(est.std(ddof=1) / np.sqrt(n)),
        coverage=coverage,
        coverage_mcse=float(np.sqrt(coverage * (1.0 - coverage) / n)),
        mse=float(sq_err.mean()),
        mse_mcse=float(sq_err.std(ddof=1) / np.sqrt(n)),
        empirical_se=float(est.std(ddof=1)),
        mean_model_se=float(se.mean()),
        convergence_rate=float(np.mean([r.converged for r in records])),
    )
