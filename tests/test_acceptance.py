"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the documented tolerance. The checks are deliberately
independent of the unit tests: closed forms are validated against
numeric quadrature, fitted standard errors against a parametric
bootstrap, and simulated data against marginal survival curves.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from frailsim import fitting
from frailsim.cli import main
from frailsim.estimands import (
    EstimandName,
    MarginalModel,
    delta_method_se,
    life_expectancy,
    lle,
    lle_functional,
)
from frailsim.fitting import ModelParams, ModelSpec, model_from_id
from frailsim.harness import (
    ReplicationRecord,
    derive_seed,
    filter_convergence,
    performance,
    run_cell,
)
from frailsim.hazards import (
    Exponential,
    FrailtyFamily,
    FrailtySpec,
    gamma_marginal_survival,
)
from frailsim.simulate import (
    ClusteredDataset,
    Scenario,
    generate_dataset,
    make_scenario,
    scenario_grid,
)
from frailsim.splines import place_knots

from oracles import conditional_pieces, tanh_sinh


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"{name}: {detail}"


def _log_hr_performance(scenario, model_id, n_sim, master_seed):
    spec = model_from_id(model_id)
    records = filter_convergence(
        run_cell([scenario], [spec], n_sim, master_seed, workers=1))
    log_hr = [r for r in records if r.estimand is EstimandName.LOG_HR]
    return performance(log_hr, scenario.beta)


def test_criterion_01_gamma_closed_form_vs_quadrature():
    """Closed-form gamma-frailty cluster likelihoods agree with direct
    numeric integration over the frailty for random models and clusters."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for _ in range(50):
        base = rng.choice(["exp", "wei", "gom", "rp"])
        theta = float(rng.uniform(0.15, 1.5))
        beta = float(rng.normal(-0.5, 0.4))
        n = int(rng.integers(1, 5))
        t = rng.uniform(0.2, 6.0, n)
        d = (rng.random(n) < 0.8).astype(np.int8)
        x = (rng.random(n) < 0.5).astype(np.int8)
        basis = None
        if base == "exp":
            baseline = np.array([rng.uniform(0.2, 1.0)])
            spec = ModelSpec("exp", "gamma")
        elif base == "wei":
            baseline = np.array([rng.uniform(0.2, 1.0), rng.uniform(0.6, 1.8)])
            spec = ModelSpec("wei", "gamma")
        elif base == "gom":
            baseline = np.array([rng.uniform(0.2, 1.0), rng.uniform(-0.2, 0.4)])
            spec = ModelSpec("gom", "gamma")
        else:
            spec = ModelSpec("rp", "gamma", df=3)
            basis = place_knots(np.log(rng.uniform(0.1, 8.0, 30)), 3)
            baseline = np.array([np.log(0.4), 1.0, rng.normal(0, 0.05),
                                 rng.normal(0, 0.05)])
        params = ModelParams(spec=spec, baseline=baseline, beta=beta,
                             frailty_var=theta, basis=basis)
        data = ClusteredDataset(cluster=np.zeros(n, dtype=np.int64), time=t,
                                event=d, treat=x)
        ll_closed = fitting.gamma_marginal_loglik(spec, params, data)
        h, H = conditional_pieces(spec, params, t, x)
        h, H = np.atleast_1d(h), np.atleast_1d(H)
        D, V = float(d.sum()), float(H.sum())
        inv = 1.0 / theta
        hi = (D + inv) / (V + inv) * 60 + 60
        integral = tanh_sinh(
            lambda a: a**D * np.exp(-a * V) * gamma_dist.pdf(a, inv, scale=theta),
            0.0, hi, tol=1e-13)
        ll_numeric = float(np.log(h[d.astype(bool)]).sum() + np.log(integral))
        worst = max(worst, abs(ll_closed - ll_numeric) / abs(ll_numeric))
    elapsed = time.monotonic() - t0
    _report(1, "gamma closed form vs quadrature",
            worst <= 1e-8 and elapsed < 60.0,
            f"worst rel err {worst:.2e} tol 1e-8, {elapsed:.1f}s")


def test_criterion_02_gauss_hermite_node_stability():
    """Log-normal marginal log likelihoods are stable in the adaptive
    Gauss-Hermite node count: 15 nodes matches 63 nodes."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for k in range(20):
        fam = ["exp", "wei", "gom"][k % 3]
        sc = make_scenario(fam, "lognormal", float(rng.uniform(0.2, 1.2)),
                           1, 150, scenario_id=f"nodecheck{k}")
        data = generate_dataset(sc, 1000 + k)
        baseline = {
            "exp": np.array([rng.uniform(0.3, 0.8)]),
            "wei": np.array([rng.uniform(0.3, 0.8), rng.uniform(0.7, 1.5)]),
            "gom": np.array([rng.uniform(0.3, 0.8), rng.uniform(0.0, 0.3)]),
        }[fam]
        theta = float(rng.uniform(0.2, 1.2))
        lls = []
        for nodes in (15, 63):
            spec = ModelSpec(fam, "lognormal", gh_nodes=nodes)
            params = ModelParams(spec=spec, baseline=baseline, beta=-0.5,
                                 frailty_var=theta)
            lls.append(fitting.lognormal_marginal_loglik(spec, params, data))
        worst = max(worst, abs(lls[0] - lls[1]) / abs(lls[1]))
    elapsed = time.monotonic() - t0
    _report(2, "adaptive GH node stability",
            worst <= 1e-6 and elapsed < 60.0,
            f"worst rel err {worst:.2e} tol 1e-6, {elapsed:.1f}s")


def test_criterion_03_simulated_data_matches_marginal_survival():
    """Kaplan-Meier curves from one large simulated dataset sit inside a
    pointwise 99% band around the marginal survival function per arm."""
    t0 = time.monotonic()
    sc = make_scenario("exp", "gamma", 0.25, 500, 100, scenario_id="km_check")
    data = generate_dataset(sc, 314)
    z99 = 2.5758293035489004
    checks = []
    for arm in (0, 1):
        mask = data.treat == arm
        order = np.argsort(data.time[mask], kind="stable")
        tt = data.time[mask][order]
        ev = data.event[mask][order]
        uniq, deaths = np.unique(tt[ev == 1], return_counts=True)
        at_risk = len(tt) - np.searchsorted(tt, uniq, side="left")
        surv = np.cumprod(1.0 - deaths / at_risk)
        greenwood = np.cumsum(deaths / (at_risk * (at_risk - deaths)))
        half_width = z99 * surv * np.sqrt(greenwood)
        for tq in (1.0, 2.0, 3.0, 4.0):
            idx = np.searchsorted(uniq, tq, side="right") - 1
            truth = gamma_marginal_survival(
                0.5 * tq * math.exp(arm * sc.beta), 0.25)
            lo = surv[idx] - half_width[idx]
            hi = surv[idx] + half_width[idx]
            checks.append(lo <= truth <= hi)
    elapsed = time.monotonic() - t0
    _report(3, "simulated survival vs marginal truth",
            all(checks) and elapsed < 120.0,
            f"{sum(checks)}/8 time points in 99% bands, {elapsed:.1f}s")


def test_criterion_04_life_expectancy_oracles():
    """Life expectancy integration: exact closed form for the exponential
    gamma case, exact zero at a null effect, grid-doubling stability."""
    t0 = time.monotonic()
    worst_closed = 0.0
    for theta in (0.25, 0.75):
        sc = make_scenario("exp", "gamma", theta, 20, 150)
        model = MarginalModel.from_scenario(sc)
        for x in (0, 1):
            c = 0.5 * math.exp(sc.beta * x)
            closed = ((1.0 + theta * c * 5.0) ** (1.0 - 1.0 / theta) - 1.0) \
                / (c * (theta - 1.0))
            got = life_expectancy(model, x, 5.0)
            worst_closed = max(worst_closed, abs(got - closed))

    null = make_scenario("gom", "gamma", 0.75, 20, 150, beta=0.0,
                         scenario_id="null_effect")
    lle_null = lle(MarginalModel.from_scenario(null), 5.0)

    worst_grid = 0.0
    for sc in scenario_grid():
        model = MarginalModel.from_scenario(sc)
        d = abs(lle(model, 5.0, n_grid=2000) - lle(model, 5.0, n_grid=1000))
        worst_grid = max(worst_grid, d)
    elapsed = time.monotonic() - t0
    ok = worst_closed <= 1e-6 and lle_null == 0.0 and worst_grid <= 1e-6 \
        and elapsed < 60.0
    _report(4, "life expectancy oracles", ok,
            f"closed-form err {worst_closed:.2e}, null LLE {lle_null!r}, "
            f"grid doubling {worst_grid:.2e}, {elapsed:.1f}s")


def test_criterion_05_misspecification_bias_separation():
    """Fitting an exponential baseline to increasing-hazard mixture data
    must show material log-HR bias with degraded coverage, while the
    5-df spline baseline stays nearly unbiased with nominal coverage."""
    t0 = time.monotonic()
    sc = make_scenario("ww1", "gamma", 0.75, 20, 150)
    wrong = _log_hr_performance(sc, "exp_gamma", 200, 20240901)
    flexible = _log_hr_performance(sc, "rp5_gamma", 200, 20240901)
    elapsed = time.monotonic() - t0
    ok = (abs(wrong.bias) >= 0.05 and wrong.coverage <= 0.90
          and abs(flexible.bias) <= 0.02
          and 0.915 <= flexible.coverage <= 0.975
          and elapsed < 1800.0)
    _report(5, "misspecification bias separation", ok,
            f"exp bias {wrong.bias:+.4f} cov {wrong.coverage:.3f}; "
            f"rp5 bias {flexible.bias:+.4f} cov {flexible.coverage:.3f}; "
            f"{elapsed:.0f}s")


def test_criterion_06_well_specified_calibration():
    """The correctly specified model is unbiased with nominal coverage
    up to Monte Carlo error."""
    t0 = time.monotonic()
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    perf = _log_hr_performance(sc, "exp_gamma", 200, 1)
    elapsed = time.monotonic() - t0
    ok = (abs(perf.bias) <= 2.0 * perf.bias_mcse
          and abs(perf.coverage - 0.95) <= 2.0 * perf.coverage_mcse
          and elapsed < 600.0)
    _report(6, "well-specified calibration", ok,
            f"bias {perf.bias:+.5f} (2 mcse {2 * perf.bias_mcse:.5f}), "
            f"coverage {perf.coverage:.4f} (2 mcse {2 * perf.coverage_mcse:.4f}), "
            f"{elapsed:.0f}s")


def test_criterion_07_coverage_mcse_formula():
    """Coverage Monte Carlo standard errors follow sqrt(c(1-c)/n)."""
    def cell(n_cover, n_total):
        recs = [ReplicationRecord("s", "m", i, EstimandName.LOG_HR, 0.0, 1.0,
                                  True) for i in range(n_cover)]
        recs += [ReplicationRecord("s", "m", n_cover + i, EstimandName.LOG_HR,
                                   10.0, 0.1, True)
                 for i in range(n_total - n_cover)]
        return performance(recs, truth=0.0)

    nominal = cell(950, 1000)
    half = cell(500, 1000)
    ok = (abs(nominal.coverage_mcse - 0.0068) <= 1e-4
          and abs(half.coverage_mcse - 0.0158) <= 1e-4
          and nominal.coverage == 0.95 and half.coverage == 0.5)
    _report(7, "coverage MCSE formula", ok,
            f"c=0.95: {nominal.coverage_mcse:.6f} vs 0.0068; "
            f"c=0.50: {half.coverage_mcse:.6f} vs 0.0158")


def test_criterion_08_scenario_grid_factorial():
    """The study grid is the full 5 x 3 x 3 x 2 factorial, 90 scenarios."""
    grid = scenario_grid()
    baselines = {repr(sc.baseline) for sc in grid}
    families = {sc.frailty.family for sc in grid}
    variances = {sc.frailty.variance for sc in grid}
    designs = {(sc.n_clusters, sc.cluster_size) for sc in grid}
    combos = {(repr(sc.baseline), sc.frailty.family, sc.frailty.variance,
               sc.n_clusters) for sc in grid}
    ok = (len(grid) == 90 and len(combos) == 90
          and len(baselines) == 5 and len(families) == 3
          and len(variances) == 3 and designs == {(20, 150), (750, 2)}
          and variances == {0.25, 0.75, 1.25}
          and families == {FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL,
                           FrailtyFamily.MIXTURE_NORMAL}
          and len({sc.id for sc in grid}) == 90)
    _report(8, "scenario grid factorial", ok,
            f"{len(grid)} scenarios = {len(baselines)} baselines x "
            f"{len(families)} frailties x {len(variances)} variances x "
            f"{len(designs)} designs")


def test_criterion_09_delta_method_se_validation():
    """Hazard-ratio SEs satisfy the exact delta identity, and the LLE
    delta-method SE agrees with a 500-draw parametric bootstrap."""
    t0 = time.monotonic()
    sc = make_scenario("exp", "gamma", 0.25, 100, 20)
    data = generate_dataset(sc, 20240614)
    spec = model_from_id("exp_gamma")
    res = fitting.fit(spec, data)
    assert res.converged

    from frailsim.estimands import EstimandResult
    log_hr = EstimandResult(EstimandName.LOG_HR, res.beta_hat, res.beta_se)
    hr = log_hr.hazard_ratio()
    hr_identity = abs(hr.se - math.exp(res.beta_hat) * res.beta_se)

    delta_se = delta_method_se(res, lle_functional(res, 5.0)(res.trans)[1])
    boot_sc = Scenario(
        baseline=Exponential(float(res.params.natural_vector()[0])),
        frailty=FrailtySpec(FrailtyFamily.GAMMA, res.frailty_var_hat),
        n_clusters=sc.n_clusters,
        cluster_size=sc.cluster_size,
        beta=res.beta_hat,
        treat_prob=sc.treat_prob,
        censor_time=sc.censor_time,
        id="se_boot",
    )
    draws = []
    for b in range(500):
        bdata = generate_dataset(boot_sc, derive_seed(20240614, "se_boot", b))
        bres = fitting.fit(spec, bdata, start=res.trans_raw)
        if bres.converged:
            draws.append(lle_functional(bres, 5.0)(bres.trans)[0])
    boot_se = float(np.std(draws, ddof=1))
    elapsed = time.monotonic() - t0
    ok = (hr_identity <= 1e-6
          and abs(delta_se - boot_se) <= 0.15 * boot_se
          and delta_se <= 1.05 * boot_se
          and elapsed < 600.0)
    _report(9, "delta method SE validation", ok,
            f"HR identity err {hr_identity:.2e}; LLE delta {delta_se:.6f} vs "
            f"bootstrap {boot_se:.6f} over {len(draws)} draws, {elapsed:.0f}s")


def test_criterion_10_worker_count_invariance(tmp_path):
    """The replication engine gives byte-identical results CSVs for the
    same master seed regardless of worker count."""
    results, summaries = [], []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        rc = main(["mc", "--scenarios", "exp_gamma_t025_750x2",
                   "--models", "exp_gamma", "--nsim", "4",
                   "--seed", "20240901", "--workers", str(workers),
                   "--out", str(out)])
        assert rc == 0
        results.append((out / "results.csv").read_bytes())
        summaries.append((out / "summary.csv").read_bytes())
    same = results[0] == results[1] and summaries[0] == summaries[1]
    _report(10, "worker count invariance", same,
            f"results and summaries identical across 1 vs 3 workers: {same}")
