"""Command-line surface: simulate datasets, fit models, run study grids.

Subcommands:
  simulate   write dataset CSVs (+ manifests) for a scenario
  fit        fit one or all models to a dataset CSV and report estimands
  mc         run a scenario x model replication grid, write results,
             summaries and tidy plot data
  summarize  recompute summaries and plot data from a results CSV

Exit codes: 0 success (possibly with warnings), 2 configuration error,
3 data error, 4 internal numeric error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from .estimands import (
    EstimandName,
    EstimandResult,
    delta_method_se,
    lle_functional,
)
from .exceptions import (
    ConfigError,
    DataError,
    FitSetupError,
    NumericError,
)
from .fitting import (
    ModelSpec,
    all_model_ids,
    fit,
    information_criteria,
    model_from_id,
)
from .harness import (
    derive_seed,
    filter_convergence,
    plot_rows,
    read_results_csv,
    run_cell,
    summarize,
    write_plot_csv,
    write_results_csv,
    write_summary_csv,
)
from .hazards import (
    Exponential,
    FrailtyFamily,
    FrailtySpec,
    Gompertz,
    Weibull,
    WeibullMixture,
)
from .simulate import (
    DEFAULT_CENSOR_TIME,
    Scenario,
    make_scenario,
    study_baselines,
    read_dataset_csv,
    scenario_grid,
    write_dataset_csv,
    write_manifest,
)

DEFAULT_SEED = 20240901
DEFAULT_NSIM = 100

_BASELINE_KINDS = {
    "exponential": (Exponential, ("rate",)),
    "weibull": (Weibull, ("rate", "shape")),
    "gompertz": (Gompertz, ("rate", "gamma")),
    "weibull_mixture": (WeibullMixture, ("rate1", "shape1", "rate2", "shape2", "mix")),
}

_SCENARIO_FIELDS = (
    "baseline", "frailty", "frailty_var", "n_clusters", "cluster_size",
    "beta", "treat_prob", "censor_time",
)


def read_config(path: str) -> dict[str, str]:
    """Parse a flat key = value config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_baseline(text: str):
    """A baseline is a study tag ('wei') or 'kind:field=value,...'."""
    text = text.strip()
    if ":" not in text:
        tags = study_baselines()
        if text not in tags:
            raise ConfigError(
                f"unknown baseline tag {text!r}; expected one of "
                f"{sorted(tags)} or 'kind:field=value,...'"
            )
        return tags[text]
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind not in _BASELINE_KINDS:
        raise ConfigError(
            f"unknown baseline kind {kind!r}; expected one of {sorted(_BASELINE_KINDS)}"
        )
    cls, fields = _BASELINE_KINDS[kind]
    kwargs = {}
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = piece.partition("=")
        name = name.strip()
        if not eq or name not in fields:
            raise ConfigError(f"baseline {kind!r} takes fields {fields}, got {piece!r}")
        try:
            kwargs[name] = float(value)
        except ValueError:
            raise ConfigError(f"baseline field {name!r} needs a number, got {value!r}") from None
    missing = [f for f in fields if f not in kwargs]
    if missing:
        raise ConfigError(f"baseline {kind!r} missing fields {missing}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid baseline {text!r}: {exc}") from None


def _custom_scenarios(config: dict[str, str]) -> dict[str, Scenario]:
    """Collect inline scenario definitions from dotted config keys.

    A custom scenario is declared as scenario.<id>.<field> = <value> with
    fields baseline, frailty, frailty_var, n_clusters, cluster_size and
    optionally beta, treat_prob, censor_time.
    """
    staged: dict[str, dict[str, str]] = {}
    for key, value in config.items():
        if not key.startswith("scenario."):
            continue
        parts = key.split(".")
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise ConfigError(f"bad scenario key {key!r}; use scenario.<id>.<field>")
        _, sid, field = parts
        if field not in _SCENARIO_FIELDS:
            raise ConfigError(
                f"unknown scenario field {field!r} in {key!r}; "
                f"expected one of {_SCENARIO_FIELDS}"
            )
        staged.setdefault(sid, {})[field] = value
    out: dict[str, Scenario] = {}
    for sid, fields in staged.items():
        missing = [f for f in ("baseline", "frailty", "frailty_var",
                               "n_clusters", "cluster_size") if f not in fields]
        if missing:
            raise ConfigError(f"scenario {sid!r} missing fields {missing}")
        baseline = _parse_baseline(fields["baseline"])
        try:
            frailty = FrailtySpec(FrailtyFamily(fields["frailty"]),
                                  float(fields["frailty_var"]))
            out[sid] = Scenario(
                baseline=baseline,
                frailty=frailty,
                n_clusters=int(fields["n_clusters"]),
                cluster_size=int(fields["cluster_size"]),
                beta=float(fields.get("beta", -0.5)),
                treat_prob=float(fields.get("treat_prob", 0.5)),
                censor_time=float(fields.get("censor_time", DEFAULT_CENSOR_TIME)),
                id=sid,
            )
        except ValueError as exc:
            raise ConfigError(f"scenario {sid!r}: {exc}") from None
    return out


def scenario_catalog(config: dict[str, str] | None = None) -> dict[str, Scenario]:
    """Study grid scenarios plus any inline custom ones, keyed by id."""
    catalog = {s.id: s for s in scenario_grid()}
    if config:
        for sid, scenario in _custom_scenarios(config).items():
            if sid in catalog:
                raise ConfigError(f"custom scenario id {sid!r} collides with the study grid")
            catalog[sid] = scenario
    return catalog


def _split_ids(text: str) -> list[str]:
    return [piece.strip() for piece in text.split(",") if piece.strip()]


def _resolve_scenarios(spec_text: str, catalog: dict[str, Scenario]) -> list[Scenario]:
    if spec_text == "all":
        return [catalog[sid] for sid in sorted(catalog)]
    chosen = []
    for sid in _split_ids(spec_text):
        if sid not in catalog:
            raise ConfigError(f"unknown scenario id {sid!r}")
        chosen.append(catalog[sid])
    if not chosen:
        raise ConfigError("no scenarios selected")
    return chosen


def _resolve_models(spec_text: str, gh_nodes: int | None) -> list[ModelSpec]:
    ids = all_model_ids() if spec_text == "all" else _split_ids(spec_text)
    if not ids:
        raise ConfigError("no models selected")
    specs = []
    for model_id in ids:
        try:
            spec = model_from_id(model_id)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if gh_nodes is not None:
            spec = dataclasses.replace(spec, gh_nodes=gh_nodes)
        specs.append(spec)
    return specs


def _config_int(config: dict[str, str], key: str, fallback: int | None) -> int | None:
    if key not in config:
        return fallback
    try:
        return int(config[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} needs an integer, got {config[key]!r}") from None


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    catalog = scenario_catalog(config)
    if args.scenario not in catalog:
        raise ConfigError(f"unknown scenario id {args.scenario!r}")
    scenario = catalog[args.scenario]
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    out = _out_dir(args.out)
    from .simulate import generate_dataset

    for rep in range(args.reps):
        seed = derive_seed(args.seed, scenario.id, rep)
        dataset = generate_dataset(scenario, seed)
        stem = f"{scenario.id}_rep{rep}"
        write_dataset_csv(dataset, out / f"{stem}.csv")
        write_manifest(out / f"{stem}.manifest.json", scenario, seed)
    print(f"wrote {args.reps} dataset(s) for {scenario.id} to {out}")
    return 0


def _estimand_payload(res: EstimandResult) -> dict:
    lo, hi = res.ci
    return {"estimate": res.estimate, "se": res.se, "ci": [lo, hi]}


def _fit_one(model_id: str, dataset, horizon: float,
             gh_nodes: int | None, max_iter: int) -> dict:
    spec = model_from_id(model_id)
    if gh_nodes is not None:
        spec = dataclasses.replace(spec, gh_nodes=gh_nodes)
    result = fit(spec, dataset, max_iter=max_iter)
    aic, bic = information_criteria(result)
    record: dict = {
        "model_id": spec.id,
        "converged": result.converged,
        "loglik": result.loglik,
        "aic": aic,
        "bic": bic,
        "message": result.message,
        "params": {name: float(val) for name, val in
                   zip(result.natural_names, result.params.natural_vector())},
        "se": {name: float(val) for name, val in
               zip(result.natural_names, result.se_natural)},
        "estimands": {},
    }
    if not result.converged:
        record["estimands"] = {name: None for name in
                               ("LogHR", "HR", "FrailtyVar", "LLE")}
        return record
    log_hr = EstimandResult(EstimandName.LOG_HR, result.beta_hat, result.beta_se)
    record["estimands"]["LogHR"] = _estimand_payload(log_hr)
    record["estimands"]["HR"] = _estimand_payload(log_hr.hazard_ratio())
    record["estimands"]["FrailtyVar"] = _estimand_payload(
        EstimandResult(EstimandName.FRAILTY_VAR,
                       result.frailty_var_hat, result.frailty_var_se))
    try:
        functional = lle_functional(result, horizon)
        est = functional(result.trans)
        se = delta_method_se(result, functional)
        record["estimands"]["LLE"] = _estimand_payload(
            EstimandResult(EstimandName.LLE, est, se))
    except NumericError:
        record["estimands"]["LLE"] = None
    return record


def _format_cell(payload: dict | None) -> str:
    if payload is None:
        return "-"
    return f"{payload['estimate']:.4f} ({payload['se']:.4f})"


def cmd_fit(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.dataset)
    model_ids = all_model_ids() if args.model == "all" else _split_ids(args.model)
    if not model_ids:
        raise ConfigError("no models selected")
    for model_id in model_ids:
        try:
            model_from_id(model_id)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    records = [_fit_one(mid, dataset, args.horizon, args.gh_nodes, args.max_iter)
               for mid in model_ids]
    header = (f"{'model':<14s} {'conv':<5s} {'HR (SE)':<18s} "
              f"{'frailty var (SE)':<18s} {'LLE (SE)':<18s} {'AIC':>10s} {'BIC':>10s}")
    print(header)
    print("-" * len(header))
    for rec in records:
        print(f"{rec['model_id']:<14s} {'yes' if rec['converged'] else 'no':<5s} "
              f"{_format_cell(rec['estimands']['HR']):<18s} "
              f"{_format_cell(rec['estimands']['FrailtyVar']):<18s} "
              f"{_format_cell(rec['estimands']['LLE']):<18s} "
              f"{rec['aic']:>10.2f} {rec['bic']:>10.2f}")
    if args.out:
        out = _out_dir(args.out)
        stem = Path(args.dataset).stem
        path = out / f"fit_{stem}.json"
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    catalog = scenario_catalog(config)
    scenarios = _resolve_scenarios(args.scenarios or config.get("scenarios", "all"),
                                   catalog)
    gh_nodes = args.gh_nodes if args.gh_nodes is not None else _config_int(config, "gh_nodes", None)
    models = _resolve_models(args.models or config.get("models", "all"), gh_nodes)
    n_sim = args.nsim if args.nsim is not None else _config_int(config, "n_sim", DEFAULT_NSIM)
    seed = args.seed if args.seed is not None else _config_int(config, "master_seed", DEFAULT_SEED)
    workers = args.workers if args.workers is not None else _config_int(config, "workers", 1)
    out_text = args.out or config.get("out", "mc_output")
    if n_sim < 1:
        raise ConfigError(f"n_sim must be at least 1, got {n_sim}")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    out = _out_dir(out_text)

    records = run_cell(scenarios, models, n_sim, seed, workers=workers)
    records = filter_convergence(records)
    id_map = {s.id: s for s in scenarios}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summaries = summarize(records, id_map)
    rows = plot_rows(summaries, records, id_map)
    write_results_csv(records, out / "results.csv")
    write_summary_csv(summaries, out / "summary.csv")
    write_plot_csv(rows, out / "plot_data.csv")

    n_failed = sum(1 for r in records if not r.converged)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    print(f"wrote {out / 'results.csv'}, {out / 'summary.csv'}, {out / 'plot_data.csv'}")
    print(f"{len(records)} records ({n_failed} non-converged, "
          f"{sum(1 for r in records if r.filtered)} filtered, "
          f"{len(caught)} warning(s))")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    catalog = scenario_catalog(config)
    records = read_results_csv(args.results)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        summaries = summarize(records, catalog)
    rows = plot_rows(summaries, records, catalog)
    out = _out_dir(args.out)
    write_summary_csv(summaries, out / "summary.csv")
    write_plot_csv(rows, out / "plot_data.csv")
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    print(f"wrote {out / 'summary.csv'} and {out / 'plot_data.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frailsim",
        description="Shared-frailty survival simulation and model fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write dataset CSVs for a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario id")
    p_sim.add_argument("--reps", type=int, default=1, help="number of datasets")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p_sim.add_argument("--out", default="datasets", help="output directory")
    p_sim.add_argument("--config", help="config file with custom scenarios")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit models to a dataset CSV")
    p_fit.add_argument("dataset", help="dataset CSV path")
    p_fit.add_argument("--model", default="all",
                       help="comma-separated model ids, or 'all'")
    p_fit.add_argument("--horizon", type=float, default=DEFAULT_CENSOR_TIME,
                       help="life-expectancy horizon in years")
    p_fit.add_argument("--gh-nodes", type=int, default=None,
                       help="Gauss-Hermite node count override")
    p_fit.add_argument("--max-iter", type=int, default=500,
                       help="optimizer iteration cap per start")
    p_fit.add_argument("--out", default=None,
                       help="directory for the machine-readable record")
    p_fit.set_defaults(func=cmd_fit)

    p_mc = sub.add_parser("mc", help="run a replication study grid")
    p_mc.add_argument("--config", help="config file")
    p_mc.add_argument("--scenarios", default=None,
                      help="comma-separated scenario ids, or 'all'")
    p_mc.add_argument("--models", default=None,
                      help="comma-separated model ids, or 'all'")
    p_mc.add_argument("--nsim", type=int, default=None, help="replications per cell")
    p_mc.add_argument("--seed", type=int, default=None, help="master seed")
    p_mc.add_argument("--workers", type=int, default=None, help="worker processes")
    p_mc.add_argument("--gh-nodes", type=int, default=None,
                      help="Gauss-Hermite node count override")
    p_mc.add_argument("--out", default=None, help="output directory")
    p_mc.set_defaults(func=cmd_mc)

    p_sum = sub.add_parser("summarize", help="recompute summaries from results")
    p_sum.add_argument("results", help="results CSV path")
    p_sum.add_argument("--config", help="config file with custom scenarios")
    p_sum.add_argument("--out", default="mc_output", help="output directory")
    p_sum.set_defaults(func=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FitSetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
