"""The two study workloads, one pass of each, and the reference check.

A pass is one in-process call of ``frailsim.cli.main`` with the CLI's own
arguments; the benchmark reads back the files the CLI writes. Every fit of
a pass is an outcome keyed by (scenario, model, rep) for ``mc`` and by
model id for ``fit``: converged or not, whether the LLE was computed, and
each estimand's estimate and SE.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from frailsim import cli, estimands
from frailsim.harness import derive_seed, read_results_csv
from frailsim.simulate import generate_dataset, write_dataset_csv

REFERENCE_SEED = 20240901
# Estimates and SEs must lie within this many reference SEs of the
# reference. The arithmetic at the reference commit reproduces exactly;
# the slack admits changes such as analytic gradients, which move an
# optimum by far less than this.
REFERENCE_TOL = 0.1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FIT_ALL_SCENARIO = "ww2_mixturenormal_t075_20x150"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "mc" or "fit"
    scenarios: tuple[str, ...]
    models: str
    nsim: int = 1
    workers: int = 1
    # also run the reference input at 1 worker; results must be byte-identical
    check_one_worker: bool = False

    @property
    def reference_file(self) -> Path:
        return REFERENCE_DIR / (f"{self.name}.csv" if self.command == "mc"
                                else f"{self.name}.json")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mc_short", "mc",
            tuple(f"{b}_{f}_t075_750x2" for b in ("exp", "wei", "gom", "ww1", "ww2")
                  for f in ("gamma", "mixturenormal")),
            "exp_gamma,wei_gamma", nsim=2, workers=2, check_one_worker=True,
        ),
        Workload("fit_all", "fit", (FIT_ALL_SCENARIO,), "all"),
    )
}


@dataclass
class Pass:
    wall: float
    exit_code: int
    output: bytes  # results.csv or fit_*.json, as written
    outcomes: dict  # key -> (converged, has_lle, {estimand: (estimate, se)})

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for conv, has_lle, _ in self.outcomes.values() if conv and has_lle)


def fit_all_dataset(workdir: Path, seed: int) -> Path:
    """Write replication 0 of the fit_all scenario; the CLI reads it back."""
    scenario = cli.scenario_catalog()[FIT_ALL_SCENARIO]
    path = workdir / f"fit_all_seed{seed}.csv"
    write_dataset_csv(generate_dataset(scenario, derive_seed(seed, scenario.id, 0)), path)
    return path


def run_pass(w: Workload, seed: int, workdir: Path, tag: str,
             workers: int | None = None, dataset: Path | None = None) -> Pass:
    """One CLI call. The truth cache is cleared first, as in a fresh process."""
    out = workdir / tag
    if w.command == "mc":
        argv = ["mc", "--scenarios", ",".join(w.scenarios), "--models", w.models,
                "--nsim", str(w.nsim), "--seed", str(seed),
                "--workers", str(workers or w.workers), "--out", str(out)]
        result = out / "results.csv"
    else:
        argv = ["fit", str(dataset), "--model", w.models, "--out", str(out)]
        result = out / f"fit_{dataset.stem}.json"
    estimands.true_estimands.cache_clear()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0 or not result.exists():
        return Pass(wall, code, b"", {})
    return Pass(wall, code, result.read_bytes(), parse_outcomes(w, result))


def parse_outcomes(w: Workload, path: Path) -> dict:
    outcomes: dict = {}
    if w.command == "mc":
        for r in read_results_csv(str(path)):
            key = (r.scenario_id, r.model_id, r.rep)
            conv, has_lle, values = outcomes.get(key, (False, False, {}))
            if r.estimand.value == "LogHR":
                conv = r.converged
            if r.estimand.value == "LLE":
                has_lle = r.converged
            if r.converged:
                values[r.estimand.value] = (r.estimate, r.se)
            outcomes[key] = (conv, has_lle, values)
        return outcomes
    for rec in json.loads(path.read_text()):
        values = {name: (v["estimate"], v["se"])
                  for name, v in rec["estimands"].items() if v is not None}
        outcomes[rec["model_id"]] = (rec["converged"], "LLE" in values, values)
    return outcomes


def check_against_reference(w: Workload, p: Pass) -> list[str]:
    """Problems with a reference-seed pass; an empty list means it matches."""
    if p.exit_code != 0:
        return [f"{w.name}: CLI exited with code {p.exit_code}"]
    ref = parse_outcomes(w, w.reference_file)
    problems = []
    if set(ref) != set(p.outcomes):
        problems.append(f"{w.name}: fits differ from the reference "
                        f"({len(p.outcomes)} vs {len(ref)})")
    for key in sorted(set(ref) & set(p.outcomes), key=str):
        ref_conv, ref_lle, ref_vals = ref[key]
        conv, has_lle, vals = p.outcomes[key]
        if (conv, has_lle) != (ref_conv, ref_lle):
            problems.append(f"{w.name} {key}: converged/LLE {conv}/{has_lle}, "
                            f"reference {ref_conv}/{ref_lle}")
            continue
        for name, (ref_est, ref_se) in ref_vals.items():
            est, se = vals[name]
            scale = REFERENCE_TOL * ref_se
            if not (abs(est - ref_est) <= scale and abs(se - ref_se) <= scale):
                problems.append(f"{w.name} {key} {name}: {est!r} ({se!r}), "
                                f"reference {ref_est!r} ({ref_se!r})")
    return problems

