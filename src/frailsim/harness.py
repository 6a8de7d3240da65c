"""Monte Carlo replication engine and performance summaries.

run_cell fits every requested model to n_sim simulated datasets from each
requested scenario, simulating each (scenario, rep) dataset once for all
models, and emits per-replication records for the log hazard ratio, the
loss in life expectancy, and the frailty variance. estimate takes those
from one fit, for run_cell and the CLI's fit command alike.
filter_convergence applies the median/IQR outlier rule, and summarize
turns filtered records into bias, coverage and MSE with Monte Carlo
standard errors.
"""
from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Iterable, Mapping, Sequence

import numpy as np

from .estimands import (
    Z95,
    EstimandName,
    EstimandResult,
    delta_method_se,
    lle_functional,
    true_estimands,
)
from .exceptions import DataError, DomainError, FitSetupError, NumericError
from .fitting import FitResult, ModelSpec, PreparedDataset, fit, prepare_dataset
from .simulate import Scenario, generate_dataset

__all__ = [
    "RESULTS_HEADER",
    "SUMMARY_HEADER",
    "ReplicationRecord",
    "PerformanceSummary",
    "derive_seed",
    "estimate",
    "run_cell",
    "filter_convergence",
    "performance",
    "summarize",
    "plot_rows",
    "write_results_csv",
    "read_results_csv",
    "write_summary_csv",
    "write_plot_csv",
]

RESULTS_HEADER = "scenario_id,model_id,rep,estimand,estimate,se,converged,filtered"
SUMMARY_HEADER = (
    "scenario_id,model_id,estimand,n_used,bias,bias_mcse,coverage,coverage_mcse,"
    "mse,mse_mcse,empirical_se,mean_model_se,convergence_rate"
)
PLOT_HEADER = (
    "scenario_id,baseline,frailty,frailty_var,n_clusters,cluster_size,"
    "model_id,estimand,measure,value,mcse,status"
)

ESTIMAND_ORDER = (EstimandName.LOG_HR, EstimandName.LLE, EstimandName.FRAILTY_VAR)
FILTER_CUTOFF = 10.0
FILTER_ALARM = 0.05


@dataclass(frozen=True)
class ReplicationRecord:
    """One estimand from one model fit to one simulated dataset."""

    scenario_id: str
    model_id: str
    rep: int
    estimand: EstimandName
    estimate: float
    se: float
    converged: bool
    filtered: bool = False
    # seconds of this model's fit and estimands, without the dataset's
    # simulation and preparation, which its models share; the first fit
    # that needs the dataset's anchor, its exp_gamma fit, pays for it
    wall_time: float = 0.0


@dataclass(frozen=True)
class PerformanceSummary:
    scenario_id: str
    model_id: str
    estimand: EstimandName
    n_used: int
    bias: float
    bias_mcse: float
    coverage: float
    coverage_mcse: float
    mse: float
    mse_mcse: float
    empirical_se: float
    mean_model_se: float
    convergence_rate: float


def derive_seed(master_seed: int, scenario_id: str, rep: int) -> int:
    """Stable per-replication seed, independent of execution order."""
    text = f"{master_seed}|{scenario_id}|{rep}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def estimate(result: FitResult,
             horizon: float) -> dict[EstimandName, EstimandResult | None]:
    """The study's estimands of one fit, in ESTIMAND_ORDER.

    A fit that did not converge gives None for each. A converged fit gives
    LogHR and FrailtyVar, and the LLE with its delta-method SE from one pass
    of lle_functional, or None for the LLE when that fails numerically (a
    NumericError); any other error propagates.
    """
    if not result.converged:
        return dict.fromkeys(ESTIMAND_ORDER)
    try:
        lle_hat, grad = lle_functional(result, horizon)(result.trans)
        lle_result = EstimandResult(EstimandName.LLE, lle_hat,
                                    delta_method_se(result, grad))
    except NumericError:
        lle_result = None
    return {
        EstimandName.LOG_HR: EstimandResult(EstimandName.LOG_HR, result.beta_hat,
                                            result.beta_se),
        EstimandName.LLE: lle_result,
        EstimandName.FRAILTY_VAR: EstimandResult(
            EstimandName.FRAILTY_VAR, result.frailty_var_hat, result.frailty_var_se),
    }


def _records(scenario_id: str, model_id: str, rep: int,
             values: Mapping[EstimandName, EstimandResult | None],
             wall_time: float) -> list[ReplicationRecord]:
    """One record per estimand; a missing or None value is a NaN record
    with converged=false."""
    nan = float("nan")
    return [
        ReplicationRecord(scenario_id, model_id, rep, name, nan, nan, False,
                          wall_time=wall_time)
        if (res := values.get(name)) is None else
        ReplicationRecord(scenario_id, model_id, rep, name, float(res.estimate),
                          float(res.se), True, wall_time=wall_time)
        for name in ESTIMAND_ORDER
    ]


def _fit_records(scenario_id: str, spec: ModelSpec, rep: int, data: PreparedDataset,
                 horizon: float) -> list[ReplicationRecord]:
    """Fit one model to one prepared dataset and extract the three estimands."""
    started = time.perf_counter()
    try:
        result = fit(spec, data)
    except (FitSetupError, NumericError):
        # the fit's own failures: data that cannot support the model, or a
        # numeric routine that missed its target
        values = {}
    else:
        values = estimate(result, horizon)
    return _records(scenario_id, spec.id, rep, values, time.perf_counter() - started)


def _replicate(task) -> list[list[ReplicationRecord]]:
    """Run one (scenario, rep): simulate one dataset and prepare it once,
    then fit every model to it. Returns one record list per model, in model
    order."""
    scenario, specs, rep, master_seed = task
    try:
        data = prepare_dataset(
            generate_dataset(scenario, derive_seed(master_seed, scenario.id, rep)))
    except (NumericError, DomainError, FitSetupError):
        # the simulation's own failures (an inversion that misses its
        # residual or bracket, or an invalid uniform or frailty), and data
        # that no model can be fitted to
        return [_records(scenario.id, spec.id, rep, {}, 0.0) for spec in specs]
    return [_fit_records(scenario.id, spec, rep, data, scenario.censor_time) for spec in specs]


def _warm_truths(scenarios: Sequence[Scenario]) -> None:
    # the call _truth_for makes, so that summarize finds each in the cache
    for scenario in scenarios:
        true_estimands(scenario)


def run_cell(
    scenarios: Sequence[Scenario],
    specs: Sequence[ModelSpec],
    n_sim: int,
    master_seed: int,
    workers: int = 1,
    horizon: float | None = None,
) -> list[ReplicationRecord]:
    """Fit every model to n_sim datasets from each scenario.

    One task per (scenario, rep) simulates its dataset once and fits all
    specs to it; with workers > 1 the tasks share one process pool.
    Deterministic given master_seed for any worker count: each replication
    derives its own seed, and the records come back ordered by scenario,
    then model, then rep. Each LLE is over its scenario's censor_time, as
    its truth is, so horizon must be None. A fit that does not converge,
    or fails with a FitSetupError or NumericError, gives converged=false
    records; any other error in the fit propagates. A simulation that
    fails numerically (a NumericError or DomainError), or a dataset that
    fails the checks of prepare_dataset (a FitSetupError), does so for
    every model of its rep; any other error in the simulation propagates.
    An LLE that fails numerically (a NumericError) becomes a
    converged=false LLE record beside the fit's other estimands; any other
    error in the estimand code propagates.

    The scenarios' true estimands, which summarize needs, are computed
    into true_estimands' cache in the main process: while the pool runs
    the tasks, or after the tasks at one worker, so that a failing truth
    raises here at every worker count.
    """
    if not n_sim >= 1:
        raise ValueError(f"n_sim must be at least 1, got {n_sim}")
    if horizon is not None:
        raise ValueError(f"horizon must be None (each scenario's censor_time), got {horizon}")
    tasks = [(scenario, specs, rep, master_seed)
             for scenario in scenarios for rep in range(n_sim)]
    if workers > 1:
        with Pool(processes=workers) as pool:
            # tasks are long (a dataset and every fit), so hand them out one at
            # a time rather than in runs that may all be slow
            pending = pool.map_async(_replicate, tasks, chunksize=1)
            _warm_truths(scenarios)
            batches = pending.get()
    else:
        batches = [_replicate(task) for task in tasks]
        _warm_truths(scenarios)
    # tasks run scenario by rep; records go out scenario by model by rep
    return [record for start in range(0, len(batches), n_sim)
            for j in range(len(specs))
            for batch in batches[start:start + n_sim] for record in batch[j]]


def _robust_z(values: np.ndarray) -> np.ndarray:
    med, q1, q3 = np.quantile(values, [0.5, 0.25, 0.75], method="linear").tolist()
    iqr = q3 - q1
    if iqr == 0.0:
        return np.zeros_like(values)
    return (values - med) / iqr


def filter_convergence(records: Sequence[ReplicationRecord]) -> list[ReplicationRecord]:
    """Flag outlier replications within each (scenario, model, estimand).

    Among converged records, the estimate and the standard error are each
    standardized as (value - median) / IQR; a record is filtered when
    either statistic strictly exceeds FILTER_CUTOFF in absolute value. Zero
    IQR means no spread to standardize against, so nothing is filtered.
    """
    groups: dict[tuple[str, str, EstimandName], list[int]] = {}
    for idx, rec in enumerate(records):
        if rec.converged:
            key = (rec.scenario_id, rec.model_id, rec.estimand)
            groups.setdefault(key, []).append(idx)
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


def performance(
    records: Sequence[ReplicationRecord],
    truth: float,
) -> PerformanceSummary:
    """Bias, coverage and MSE (each with MCSE) for one cell and estimand.

    Expects the records of a single (scenario, model, estimand) group with
    filter flags already assigned; only converged, unfiltered records enter
    the summary statistics.
    """
    if not records:
        raise DataError("no records to summarize")
    scenario_id = records[0].scenario_id
    model_id = records[0].model_id
    estimand = records[0].estimand
    for rec in records:
        if (rec.scenario_id, rec.model_id, rec.estimand) != (scenario_id, model_id, estimand):
            raise DataError("performance expects records from a single cell and estimand")
    used = [r for r in records if r.converged and not r.filtered]
    n = len(used)
    if n < 2:
        raise DataError(
            f"need at least 2 usable records for {scenario_id}/{model_id}/"
            f"{estimand.value}, got {n}"
        )
    est = np.array([r.estimate for r in used])
    se = np.array([r.se for r in used])
    bias = float(est.mean() - truth)
    bias_mcse = float(est.std(ddof=1) / np.sqrt(n))
    inside = (est - Z95 * se <= truth) & (truth <= est + Z95 * se)
    coverage = float(inside.mean())
    coverage_mcse = float(np.sqrt(coverage * (1.0 - coverage) / n))
    sq_err = (est - truth) ** 2
    mse = float(sq_err.mean())
    mse_mcse = float(sq_err.std(ddof=1) / np.sqrt(n))
    return PerformanceSummary(
        scenario_id=scenario_id,
        model_id=model_id,
        estimand=estimand,
        n_used=n,
        bias=bias,
        bias_mcse=bias_mcse,
        coverage=coverage,
        coverage_mcse=coverage_mcse,
        mse=mse,
        mse_mcse=mse_mcse,
        empirical_se=float(est.std(ddof=1)),
        mean_model_se=float(se.mean()),
        convergence_rate=float(np.mean([r.converged for r in records])),
    )


def _truth_for(scenario: Scenario, estimand: EstimandName) -> float:
    beta, true_lle = true_estimands(scenario)
    if estimand is EstimandName.LOG_HR:
        return beta
    if estimand is EstimandName.LLE:
        return true_lle
    return scenario.frailty.variance


def _cells(records: Sequence[ReplicationRecord], scenarios: Mapping[str, Scenario]):
    """Yield each (scenario, model, estimand) cell of the records as (key,
    scenario, records), sorted by scenario, model and ESTIMAND_ORDER.

    Frailty-variance cells appear only where the fitted frailty family
    matches the generating one; bias of a variance against a differently
    shaped law is not a meaningful number. An unknown scenario id raises
    DataError.
    """
    groups: dict[tuple[str, str, EstimandName], list[ReplicationRecord]] = {}
    for rec in records:
        groups.setdefault((rec.scenario_id, rec.model_id, rec.estimand), []).append(rec)
    order = {name: pos for pos, name in enumerate(ESTIMAND_ORDER)}
    for key in sorted(groups, key=lambda k: (k[0], k[1], order[k[2]])):
        scenario_id, model_id, estimand = key
        if scenario_id not in scenarios:
            raise DataError(f"unknown scenario id in records: {scenario_id!r}")
        scenario = scenarios[scenario_id]
        if (estimand is EstimandName.FRAILTY_VAR
                and model_id.rsplit("_", 1)[-1] != scenario.frailty.family.value):
            continue
        yield key, scenario, groups[key]


def summarize(
    records: Sequence[ReplicationRecord],
    scenarios: Mapping[str, Scenario],
) -> list[PerformanceSummary]:
    """Per-cell performance summaries against each scenario's ground truth,
    for the cells of _cells.

    Cells with fewer than two usable records are skipped (the plot data
    marks them instead). Filtering more than FILTER_ALARM of a cell's
    converged records raises a warning since heavy filtering signals a
    pathological model/scenario pairing.
    """
    summaries = []
    for (scenario_id, model_id, estimand), scenario, cell in _cells(records, scenarios):
        converged = [r for r in cell if r.converged]
        n_filtered = sum(r.filtered for r in converged)
        if converged and n_filtered / len(converged) > FILTER_ALARM:
            warnings.warn(
                f"{scenario_id}/{model_id}/{estimand.value}: filtered "
                f"{n_filtered}/{len(converged)} converged replications",
                stacklevel=2,
            )
        try:
            summaries.append(performance(cell, _truth_for(scenario, estimand)))
        except DataError:
            continue
    return summaries


def plot_rows(
    summaries: Sequence[PerformanceSummary],
    records: Sequence[ReplicationRecord],
    scenarios: Mapping[str, Scenario],
) -> list[dict]:
    """Tidy rows for plotting: one row per cell, estimand and measure.

    Every cell of _cells appears, either with its summary values or with
    status "insufficient" when too few replications converged, so
    downstream plots can grey those cells out instead of silently dropping
    them.
    """
    have = {(s.scenario_id, s.model_id, s.estimand): s for s in summaries}
    rows = []
    for key, scenario, _ in _cells(records, scenarios):
        scenario_id, model_id, estimand = key
        base = {
            "scenario_id": scenario_id,
            "baseline": scenario.baseline_label,
            "frailty": scenario.frailty.family.value,
            "frailty_var": scenario.frailty.variance,
            "n_clusters": scenario.n_clusters,
            "cluster_size": scenario.cluster_size,
            "model_id": model_id,
            "estimand": estimand.value,
        }
        summary = have.get(key)
        for measure in ("bias", "coverage", "mse"):
            row = dict(base)
            row["measure"] = measure
            if summary is None:
                row.update(value=None, mcse=None, status="insufficient")
            else:
                row.update(
                    value=getattr(summary, measure),
                    mcse=getattr(summary, f"{measure}_mcse"),
                    status="ok",
                )
            rows.append(row)
    return rows


def _fmt(x: float | None) -> str:
    """A float at full precision, or "" for None or NaN."""
    if x is None or x != x:
        return ""
    return format(float(x), ".17g")


def _write_csv(path: str, header: str, rows: Iterable[Iterable]) -> None:
    lines = [header] + [",".join(map(str, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(records: Iterable[ReplicationRecord], path: str) -> None:
    """Long-format results; floats carry full precision so re-summarizing
    a written file reproduces the original summary bit for bit."""
    _write_csv(path, RESULTS_HEADER, (
        (r.scenario_id, r.model_id, r.rep, r.estimand.value, _fmt(r.estimate),
         _fmt(r.se), int(r.converged), int(r.filtered))
        for r in records))


def read_results_csv(path: str) -> list[ReplicationRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read results {path}: {exc}") from None
    if not lines or lines[0] != RESULTS_HEADER:
        raise DataError(f"{path}: expected header {RESULTS_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise DataError(f"{path}: line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            records.append(ReplicationRecord(
                scenario_id=parts[0],
                model_id=parts[1],
                rep=int(parts[2]),
                estimand=EstimandName(parts[3]),
                estimate=float(parts[4]) if parts[4] else float("nan"),
                se=float(parts[5]) if parts[5] else float("nan"),
                converged=_flag("converged", parts[6]),
                filtered=_flag("filtered", parts[7]),
            ))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    return records


def _flag(name: str, field: str) -> bool:
    """A 0/1 column of results.csv as a bool; any other value is a ValueError."""
    value = int(field)
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {field}")
    return value == 1


def write_summary_csv(summaries: Iterable[PerformanceSummary], path: str) -> None:
    _write_csv(path, SUMMARY_HEADER, (
        (s.scenario_id, s.model_id, s.estimand.value, s.n_used, _fmt(s.bias),
         _fmt(s.bias_mcse), _fmt(s.coverage), _fmt(s.coverage_mcse), _fmt(s.mse),
         _fmt(s.mse_mcse), _fmt(s.empirical_se), _fmt(s.mean_model_se),
         _fmt(s.convergence_rate))
        for s in summaries))


def write_plot_csv(rows: Iterable[dict], path: str) -> None:
    _write_csv(path, PLOT_HEADER, (
        (row["scenario_id"], row["baseline"], row["frailty"],
         format(row["frailty_var"], "g"), row["n_clusters"], row["cluster_size"],
         row["model_id"], row["estimand"], row["measure"], _fmt(row["value"]),
         _fmt(row["mcse"]), row["status"])
        for row in rows))
