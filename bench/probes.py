"""Direct calls of single public functions, timed on a workload's own inputs.

These give the per-layer figures that are one call of one function:
inversion, one likelihood evaluation, one spline integral and one truth
computation. Every other per-layer figure comes from the traced passes.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from frailsim import cli, estimands
from frailsim.fitting import (
    ModelParams,
    fit,
    gamma_marginal_loglik,
    lognormal_marginal_loglik,
    model_from_id,
)
from frailsim.harness import derive_seed
from frailsim.simulate import generate_dataset
from frailsim.splines import interp_integrate


def timed(fn, *args) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def median_time(repeats: int, fn, *args) -> float:
    return statistics.median(timed(fn, *args)[0] for _ in range(repeats))


def run(workload, seed: int) -> dict[str, list[float]]:
    """Samples keyed by metric name."""
    catalog = cli.scenario_catalog()
    scenarios = [catalog[sid] for sid in workload.scenarios]
    first = scenarios[0]
    data = generate_dataset(first, derive_seed(seed, first.id, 0))
    rng = np.random.default_rng(seed)
    out: dict[str, list[float]] = {}

    targets = rng.exponential(size=first.n_subjects)
    baselines = {sc.baseline_label: sc.baseline for sc in scenarios}
    # mean over the workload's baselines: the root-finding mixtures cost
    # far more than the closed forms, and a median would hide them
    out["hazards.invert_s_p50"] = [
        statistics.fmean(timed(b.inverse_cumulative_hazard, targets)[0]
                         for b in baselines.values())
        for _ in range(3)]

    # both likelihoods at the gamma fit's natural parameters; cost per call
    # hardly depends on where it is evaluated
    gamma_spec = model_from_id("wei_gamma")
    res = fit(gamma_spec, data)
    p = res.params
    lognormal_params = ModelParams(model_from_id("wei_lognormal"), p.baseline,
                                   p.beta, p.frailty_var)
    out["fitting.loglik_gamma_ms"] = [1e3 * median_time(
        5, gamma_marginal_loglik, gamma_spec, p, data)]
    out["fitting.loglik_lognormal_ms"] = [1e3 * median_time(
        5, lognormal_marginal_loglik, lognormal_params.spec, lognormal_params, data)]

    horizon = first.censor_time
    grid = horizon * np.linspace(0.0, 1.0, estimands.DEFAULT_GRID) ** 2
    surv = estimands.marginal_survival(estimands.MarginalModel.from_fit(res), grid, 0.0)
    out["splines.interp_integrate_ms"] = [1e3 * median_time(
        10, interp_integrate, grid, surv, 0.0, horizon)]

    truth = []
    for sc in scenarios:
        estimands.true_estimands.cache_clear()
        truth.append(timed(estimands.true_estimands, sc)[0])
    out["estimands.true_s"] = [statistics.fmean(truth)]
    return out
