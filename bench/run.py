"""Benchmark of frailsim's study workloads, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc_short --seed 20240901 --seconds 30 --trace 0

Workloads (see workloads.py), each driven through ``frailsim.cli.main``
in this process, one closed-loop pass after another:

* ``mc_short``: ``mc`` at 2 workers, 10 gamma and mixture scenarios of
  750 clusters x 2, models exp_gamma and wei_gamma, 2 reps: cheap
  closed-form fits, so simulation, the per-cell pool and the LLE carry a
  large share.
* ``fit_all``: ``fit --model all`` on replication 0 of
  ww2_mixturenormal_t075_20x150: all 12 models through the CLI's own
  estimand code, bound by adaptive Gauss-Hermite quadrature with 20
  clusters per call.

Each run first makes a pass on the reference input, master seed
20240901, and checks it against ``bench/reference/``: the same set of
converged fits and of fits with an LLE, and every estimate and SE within
a tenth of the reference SE. ``mc_short`` makes that pass at 1 and at 2
workers, and the two ``results.csv`` must be byte-identical.

``--trace 0`` times the reference pass and then passes whose master seeds
are hashed from ``--seed`` and the pass index, and prints the end-to-end
metrics: ``fits_per_s`` is the completed fits of all timed passes over
their summed wall time. Passes run until ``--seconds`` have passed and
there are at least MIN_PASSES of them; once there are two, a pass that
would likely end after CEILING x ``--seconds`` is not started, which
bounds a run on a slow host. ``--trace 1`` follows the
reference pass with traced and untraced passes on the same reference
input (at least two traced) and prints the per-layer metrics; the counts
of the traced passes must repeat exactly, and the single-call probes run
on the first seed-derived input. A per-layer figure whose layer the
workload's passes never reach is reported as 0 with n=0. See tracing.py
for how spans are taken and probes.py for the probes. The held-out seed
for confirming a claim after the work is done is 20250317.

``setup_s`` is the median of SETUP_REPEATS fresh interpreters that import
frailsim and build the scenario catalog (and write the fit_all dataset).
One runs after each timed pass until there are enough, so that they sample
the host over the whole run, and their time is left out of the window.
``peak_rss_mb`` reads the pool children's peak before the first of them,
so that it does not count these interpreters.

To rebuild a reference file after a deliberate change of results, copy
the ``results.csv`` or ``fit_*.json`` that the reference pass leaves
under ``bench/_work/reference/`` into ``bench/reference/``.

Every run prints its provenance (source hash, git state when there is
one, versions, CPUs, load average) above the result line, and BLAS and
OpenMP threads are pinned to 1.
"""
from __future__ import annotations

import os

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"
HELD_OUT_SEED = 20250317
SETUP_REPEATS = 5
MIN_PASSES = 3
CEILING = 2.5

END_TO_END = {"fits_per_s": "1/s", "completed_share": "fraction",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hazards.invert_s_p50": "s",
    "simulate.generate_s_p50": "s",
    "simulate.share": "fraction",
    "quadrature.calls_per_fit": "count",
    "quadrature.passes_per_call": "count",
    "quadrature.share": "fraction",
    "fitting.fit_gamma_s_p50": "s",
    "fitting.fit_lognormal_s_p50": "s",
    "fitting.evals_per_fit": "count",
    "fitting.iters_per_fit": "count",
    "fitting.loglik_calls_per_fit": "count",
    "fitting.loglik_gamma_ms": "ms",
    "fitting.loglik_lognormal_ms": "ms",
    "fitting.stagnated_share": "fraction",
    "splines.interp_integrate_ms": "ms",
    "estimands.lle_s_p50": "s",
    "estimands.lle_se_s_p50": "s",
    "estimands.share": "fraction",
    "estimands.true_s": "s",
    "harness.cell_s_p50": "s",
    "harness.rep_p50_s": "s",
    "harness.pool_overhead_s": "s",
    "harness.summarize_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead": "fraction",
    "trace.unaccounted_share": "fraction",
}
# per-pass counts that must repeat exactly on identical inputs
EXACT = ("failed_share", "fitting.evals_per_fit", "fitting.iters_per_fit",
         "fitting.loglik_calls_per_fit", "quadrature.calls_per_fit",
         "quadrature.passes_per_call", "fitting.stagnated_share")

SETUP_CODE = """
import sys, time
start = time.perf_counter()
from frailsim import cli
import workloads
cli.scenario_catalog()
if sys.argv[1] == "fit":
    workloads.fit_all_dataset(workloads.Path(sys.argv[2]), int(sys.argv[3]))
print(time.perf_counter() - start)
"""


def pass_seed(seed: int, index: int) -> int:
    """Master seed of measured pass ``index``, hashed so that nearby
    ``--seed`` values share no inputs."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def setup_seconds(w, seed: int) -> float:
    """Import frailsim and build the catalog (plus the fit_all dataset
    write) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, w.command, str(WORKDIR), str(seed)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(workers: int, child_kb: int) -> float:
    """Main-process peak plus one peak pool child per worker, when there is a pool."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + (workers * child_kb if workers > 1 else 0)) / 1024.0


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def pass_counts(p, trace) -> dict[str, float]:
    fits = trace.fits
    n = len(fits)
    c = trace.counts
    return {
        "failed_share": 1.0 - ratio(p.completed, p.attempted),
        "fitting.evals_per_fit": ratio(sum(f["evals"] for f in fits), n),
        "fitting.iters_per_fit": ratio(sum(f["iters"] for f in fits), n),
        "fitting.loglik_calls_per_fit": ratio(sum(f["loglik_calls"] for f in fits), n),
        "quadrature.calls_per_fit": ratio(sum(f["quad_calls"] for f in fits), n),
        "quadrature.passes_per_call": ratio(c["quad_passes"], c["quad_calls"]),
        "fitting.stagnated_share": ratio(sum(f["stagnated"] for f in fits), n),
    }


def layer_metrics(w, seed, untraced, traced, problems) -> tuple[dict, dict]:
    """Per-layer values and their sample counts from the traced passes,
    plus the single-call probes. A figure whose layer the passes never
    reach is 0, from no samples."""
    import probes

    counts = [pass_counts(p, t) for p, t in traced]
    for key in EXACT:
        seen = [c[key] for c in counts]
        if len(set(seen)) != 1:
            problems.append(f"count drift in {key}: {seen}")
    values = dict(counts[0])
    del values["failed_share"]
    sizes = dict.fromkeys(values, len(traced))
    samples: dict[str, list[float]] = {}

    def spans(name):
        return [s[2] - s[1] for _, t in traced for s in t.spans if s[0] == name]

    fits = [f for _, t in traced for f in t.fits]
    samples["simulate.generate_s_p50"] = spans("simulate.generate")
    for family in ("gamma", "lognormal"):
        samples[f"fitting.fit_{family}_s_p50"] = [
            f["seconds"] for f in fits if f["family"] == family]
    samples["estimands.lle_s_p50"] = spans("estimands.lle")
    samples["estimands.lle_se_s_p50"] = spans("estimands.lle_se")
    cells = [c for _, t in traced for c in t.cells]
    samples["harness.cell_s_p50"] = [c[0] for c in cells]
    samples["harness.rep_p50_s"] = [r for c in cells for r in c[2]]
    # per cell run in a pool; fit_all has no cells and mc cells at 1 worker no pool
    samples["harness.pool_overhead_s"] = [
        wall - sum(reps) / workers for wall, workers, reps in cells if workers > 1]
    samples["harness.summarize_s"] = [
        sum(s[2] - s[1] for s in t.spans
            if s[0] in ("harness.filter", "harness.summarize"))
        for _, t in traced if t.cells]
    samples["cli.overhead_s"] = [
        sum(s[2] - s[1] for s in t.spans if s[0] == "cli.main")
        - sum(s[2] - s[1] for s in t.spans
              if s[4] == "cli.main" and s[0] in ("harness.run_cell", "fitting.fit"))
        for _, t in traced]

    samples.update(probes.run(w, seed))
    for key, vals in samples.items():
        values[key] = statistics.median(vals) if vals else 0.0

    capacity = sum(p.wall * w.workers for p, _ in traced)
    values["simulate.share"] = ratio(sum(spans("simulate.generate")), capacity)
    values["quadrature.share"] = ratio(
        sum(t.counts["quad_ns"] for _, t in traced) / 1e9, capacity)
    values["estimands.share"] = ratio(
        sum(spans("estimands.lle")) + sum(spans("estimands.lle_se"))
        + sum(spans("estimands.true")), capacity)
    values["trace.overhead"] = (statistics.median(p.wall for p, _ in traced)
                                / statistics.median(p.wall for p in untraced) - 1.0)
    uncovered = root = 0.0
    for _, t in traced:
        for s in t.spans:
            if s[0] == "cli.main":
                lo, hi = s[1], s[2]
                inner = [(max(x[1], lo), min(x[2], hi)) for x in t.spans
                         if x[0] != "cli.main" and x[2] > lo and x[1] < hi]
                root += hi - lo
                uncovered += (hi - lo) - union_length(inner)
    values["trace.unaccounted_share"] = ratio(uncovered, root)

    sizes.update({k: len(v) for k, v in samples.items()})
    for key in ("simulate.share", "quadrature.share", "estimands.share",
                "trace.unaccounted_share"):
        sizes[key] = len(traced)
    reps = sorted(samples["harness.rep_p50_s"])
    if len(reps) >= 100:
        # printed only, not in BENCHMARK.json's fixed metric set; fewer reps
        # than 100 leave too few samples beyond the 90th percentile
        values["harness.rep_p90_s"] = statistics.quantiles(reps, n=10)[-1]
        sizes["harness.rep_p90_s"] = len(reps)
    return values, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "frailsim" / "__init__.py").is_file():
        print(f"error: no frailsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frailsim  # noqa: F401
    if Path(frailsim.__file__).resolve().parent != SRC / "frailsim":
        print(f"error: imported frailsim from {frailsim.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    load_before = os.getloadavg()

    problems: list[str] = []
    ref_data = (wl.fit_all_dataset(WORKDIR, wl.REFERENCE_SEED)
                if w.command == "fit" else None)

    # mc_short also checks the reference input at 1 worker, untimed, for the
    # byte-identity check. The reference pass at the workload's own worker
    # count is the first measured pass. In an untraced run each later pass
    # gets inputs of its own from --seed; a traced run repeats the reference
    # input, U T T U T U ..., so its counts must repeat exactly.
    ref_passes = ([wl.run_pass(w, wl.REFERENCE_SEED, WORKDIR, "reference-w1", workers=1)]
                  if w.check_one_worker else [])
    start = time.perf_counter()
    ref_passes.append(wl.run_pass(w, wl.REFERENCE_SEED, WORKDIR, "reference",
                                  dataset=ref_data))
    for p in ref_passes:
        problems.extend(wl.check_against_reference(w, p))
    if len({p.output for p in ref_passes}) != 1:
        problems.append(f"{w.name}: results.csv differs between 1 and {w.workers} workers")

    tracer = tracing.Tracer(WORKDIR)
    untraced, traced = [ref_passes[-1]], []
    setup: list[float] = []
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    paused = 0.0
    while True:
        if not args.trace and len(setup) < SETUP_REPEATS:
            mark = time.perf_counter()
            setup.append(setup_seconds(w, pass_seed(args.seed, 1)))
            paused += time.perf_counter() - mark
        elapsed = time.perf_counter() - start - paused
        if args.trace:
            enough = len(traced) >= 2
        else:
            last = untraced[-1].wall
            enough = len(untraced) >= MIN_PASSES or (
                len(untraced) >= 2 and elapsed + last > CEILING * args.seconds)
        if enough and elapsed >= args.seconds:
            break
        index = len(untraced) + len(traced)
        if args.trace:
            seed, data = wl.REFERENCE_SEED, ref_data
        else:
            seed = pass_seed(args.seed, index)
            data = wl.fit_all_dataset(WORKDIR, seed) if w.command == "fit" else None
        if args.trace and len(traced) <= len(untraced):
            with tracer.installed():
                tracer.begin()
                p = wl.run_pass(w, seed, WORKDIR, f"pass{index}", dataset=data)
                traced.append((p, tracer.end()))
        else:
            untraced.append(wl.run_pass(w, seed, WORKDIR, f"pass{index}", dataset=data))
    measured = untraced + [p for p, _ in traced]
    if args.trace and len({p.output for p in measured}) != 1:
        problems.append(f"{w.name}: repeated passes on one input wrote different outputs")
    expected = max(p.attempted for p in ref_passes + measured)
    attempted = expected * len(measured)
    failed = sum(expected - p.attempted for p in measured)
    if failed:
        problems.append(f"{w.name}: {failed} fits lost to errors "
                        f"(exit codes {[p.exit_code for p in measured]})")

    if args.trace:
        values, sizes = layer_metrics(w, pass_seed(args.seed, 1), untraced, traced, problems)
        units = PER_LAYER
    else:
        values = {
            "fits_per_s": ratio(sum(p.completed for p in untraced),
                                sum(p.wall for p in untraced)),
            "completed_share": ratio(sum(p.completed for p in untraced), expected * len(untraced)),
            "peak_rss_mb": peak_rss_mb(w.workers, child_kb),
        }
        sizes = {"fits_per_s": len(untraced), "completed_share": len(untraced),
                 "peak_rss_mb": 1}
        units = END_TO_END
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_seconds(w, pass_seed(args.seed, 1)))
        values["setup_s"] = statistics.median(setup)
        sizes["setup_s"] = len(setup)

    provenance = {
        "workload": w.name, "seed": args.seed, "reference_seed": wl.REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "src_sha256": source_hash(), **git_state(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "pass_walls_s": [round(p.wall, 4) for p in untraced],
        "traced_walls_s": [round(p.wall, 4) for p, _ in traced],
        "reference_walls_s": [round(p.wall, 4) for p in ref_passes],
        "setup_samples_s": [round(t, 4) for t in setup],
    }
    print(json.dumps(provenance, sort_keys=True))
    for key in sorted(values):
        unit = units.get(key, "s")
        print(f"{key:<36s} {values[key]:>14.6g} {unit:<9s} n={sizes.get(key, 1)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {key: {"value": float(values[key]), "unit": unit}
               for key, unit in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
