"""Command-line interface tests: config parsing, subcommands, exit codes."""
from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frailsim
from frailsim import cli, estimands, harness
from frailsim.cli import (
    _parse_baseline,
    build_parser,
    main,
    read_config,
    scenario_catalog,
)
from frailsim.exceptions import ConfigError, NumericError, QuadratureError
from frailsim.fitting import fit, model_from_id
from frailsim.harness import derive_seed
from frailsim.hazards import BaselineHazard, Exponential, Weibull
from frailsim.__main__ import THREAD_VARIABLES
from frailsim.simulate import make_scenario, read_dataset_csv, study_baselines, write_manifest


CUSTOM_SCENARIO = """\
# a small scenario for fast tests
scenario.demo.baseline = exponential:rate=0.4
scenario.demo.frailty = gamma
scenario.demo.frailty_var = 0.25
scenario.demo.n_clusters = 40
scenario.demo.cluster_size = 5
"""


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CUSTOM_SCENARIO)
    return str(path)


def test_read_config_flat_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "n_sim = 25   # trailing comment\n"
        "models = exp_gamma,wei_gamma\n"
        "out=results\n"
    )
    assert read_config(str(path)) == {
        "n_sim": "25",
        "models": "exp_gamma,wei_gamma",
        "out": "results",
    }


@pytest.mark.parametrize("body", [
    "just some words\n",
    "= value\n",
    "n_sim = 1\nn_sim = 2\n",
])
def test_read_config_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError):
        read_config(str(path))


def test_read_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        read_config(str(tmp_path / "nope.cfg"))


def test_parse_baseline_tags_and_custom():
    assert _parse_baseline("wei") == Weibull(rate=0.5, shape=0.8)
    custom = _parse_baseline("exponential:rate=0.4")
    assert custom == Exponential(rate=0.4)
    wm = _parse_baseline(
        "weibull_mixture:rate1=0.3,shape1=1.5,rate2=0.5,shape2=2.5,mix=0.7")
    assert wm.mix == 0.7


@pytest.mark.parametrize("text", [
    "loglogistic",                    # unknown tag
    "pareto:rate=1",                  # unknown kind
    "weibull:rate=0.5,slope=2",       # unknown field
    "weibull:rate=0.5",               # missing field
    "weibull:rate=abc,shape=1",       # non-numeric
    "exponential:rate=-2",            # invalid parameter value
    "exponential:rate=inf",           # non-finite parameter value
    "weibull:rate=0.5,shape=inf",
])
def test_parse_baseline_rejects(text):
    with pytest.raises(ConfigError):
        _parse_baseline(text)


def test_baseline_kinds_cover_every_hazard_family():
    concrete = {cls for cls in BaselineHazard.__subclasses__() if not inspect.isabstract(cls)}
    assert set(cli._BASELINE_KINDS.values()) == concrete
    assert all(kind == cls.kind for kind, cls in cli._BASELINE_KINDS.items())


@pytest.mark.parametrize("tag", sorted(study_baselines()))
def test_manifest_baseline_parses_back(tmp_path, tag):
    """A manifest's baseline entry, written as 'kind:field=value,...', is the
    study baseline again."""
    path = tmp_path / "m.json"
    write_manifest(path, make_scenario(tag, "gamma", 0.25, 20, 150), 1)
    entry = json.loads(path.read_text())["baseline"]
    kind = entry.pop("kind")
    text = kind + ":" + ",".join(f"{name}={value!r}" for name, value in entry.items())
    assert _parse_baseline(text) == study_baselines()[tag]


def test_scenario_catalog_grid_plus_custom(demo_config):
    catalog = scenario_catalog(read_config(demo_config))
    assert len(catalog) == 91
    demo = catalog["demo"]
    assert demo.n_clusters == 40
    assert demo.cluster_size == 5
    assert demo.beta == -0.5          # optional fields fall back to defaults
    assert demo.treat_prob == 0.5
    assert demo.censor_time == 5.0
    assert demo.baseline == Exponential(rate=0.4)


@pytest.mark.parametrize("extra", [
    "scenario.demo2 = 1",
    "scenario.demo2.baseline.kind = exp",
    "scenario.demo2.n_sites = 4",
    "scenario.demo2.baseline = exp",  # missing the other required fields
    # non-finite values
    pytest.param(CUSTOM_SCENARIO.replace("frailty_var = 0.25", "frailty_var = inf"),
                 id="frailty_var=inf"),
    pytest.param(CUSTOM_SCENARIO + "scenario.demo.beta = nan", id="beta=nan"),
    pytest.param(CUSTOM_SCENARIO + "scenario.demo.censor_time = inf", id="censor_time=inf"),
    # a horizon at which the LLE's time rule overflows
    pytest.param(CUSTOM_SCENARIO + "scenario.demo.censor_time = 1e308", id="censor_time=1e308"),
    pytest.param(CUSTOM_SCENARIO.replace("rate=0.4", "rate=inf"), id="rate=inf"),
    # finite values whose exp(beta) or true estimands cannot be computed
    pytest.param(CUSTOM_SCENARIO + "scenario.demo.beta = 1e300", id="beta=1e300"),
    pytest.param(CUSTOM_SCENARIO + "scenario.demo.beta = -1e300", id="beta=-1e300"),
    pytest.param(CUSTOM_SCENARIO.replace("frailty = gamma", "frailty = lognormal")
                 .replace("frailty_var = 0.25", "frailty_var = 1e300"),
                 id="lognormal_frailty_var=1e300"),
    # ids that would break a CSV field or a file name
    pytest.param(CUSTOM_SCENARIO.replace("demo", "a,b"), id="id=a,b"),
    pytest.param(CUSTOM_SCENARIO.replace("demo", "a/b"), id="id=a/b"),
])
def test_scenario_catalog_rejects_bad_custom_keys(tmp_path, extra):
    path = tmp_path / "bad.cfg"
    path.write_text(extra + "\n")
    with pytest.raises(ConfigError):
        scenario_catalog(read_config(str(path)))


def test_scenario_catalog_rejects_grid_collision(tmp_path):
    body = CUSTOM_SCENARIO.replace("demo", "exp_gamma_t025_20x150")
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError):
        scenario_catalog(read_config(str(path)))


def test_parser_identity():
    parser = build_parser()
    assert parser.prog == "frailsim"
    args = parser.parse_args(["simulate", "--scenario", "demo"])
    assert args.reps == 1
    assert args.seed == cli.DEFAULT_SEED


def test_simulate_writes_datasets_and_manifests(tmp_path, demo_config, capsys):
    out = tmp_path / "data"
    rc = main(["simulate", "--scenario", "demo", "--reps", "2",
               "--seed", "123", "--config", demo_config, "--out", str(out)])
    assert rc == 0
    for rep in range(2):
        assert (out / f"demo_rep{rep}.csv").exists()
        manifest = json.loads((out / f"demo_rep{rep}.manifest.json").read_text())
        assert manifest["seed"] == derive_seed(123, "demo", rep)
        assert manifest["scenario_id"] == "demo"
    assert "wrote 2 dataset(s)" in capsys.readouterr().out

    again = tmp_path / "data2"
    rc = main(["simulate", "--scenario", "demo", "--reps", "2",
               "--seed", "123", "--config", demo_config, "--out", str(again)])
    assert rc == 0
    assert (again / "demo_rep0.csv").read_bytes() == \
        (out / "demo_rep0.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "no_such_id"],
    ["simulate", "--scenario", "demo", "--reps", "0"],
])
def test_simulate_config_errors(tmp_path, demo_config, argv, capsys):
    if "demo" in argv:
        argv = argv + ["--config", demo_config]
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_dataset(tmp_path_factory):
    """One simulated dataset CSV reused by the fit tests."""
    tmp = tmp_path_factory.mktemp("fitdata")
    cfg = tmp / "demo.cfg"
    cfg.write_text(CUSTOM_SCENARIO)
    rc = main(["simulate", "--scenario", "demo", "--seed", "123",
               "--config", str(cfg), "--out", str(tmp)])
    assert rc == 0
    return str(tmp / "demo_rep0.csv")


def test_fit_prints_table_and_writes_json(tmp_path, demo_dataset, capsys):
    out = tmp_path / "fits"
    rc = main(["fit", demo_dataset, "--model", "exp_gamma", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0].startswith("model")
    assert any(line.startswith("exp_gamma") and " yes " in line
               for line in lines)
    payload = json.loads((out / "fit_demo_rep0.json").read_text())
    assert len(payload) == 1
    rec = payload[0]
    assert rec["model_id"] == "exp_gamma"
    assert rec["converged"] is True
    assert set(rec["estimands"]) == {"LogHR", "HR", "FrailtyVar", "LLE"}
    hr = rec["estimands"]["HR"]
    assert hr["ci"][0] < hr["estimate"] < hr["ci"][1]
    assert set(rec["params"]) == set(rec["se"])
    assert rec["aic"] == pytest.approx(2 * 3 - 2 * rec["loglik"])
    res = fit(model_from_id("exp_gamma"), read_dataset_csv(demo_dataset))
    assert rec["n_evaluations"] == res.n_evaluations > 0
    assert rec["n_iterations"] == res.n_iterations > 0
    assert rec["grad_inf_norm"] == res.grad_inf_norm
    assert rec["condition_number"] == res.condition_number >= 1


def test_fit_two_models_two_rows(demo_dataset, capsys):
    rc = main(["fit", demo_dataset, "--model", "exp_gamma,wei_gamma"])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines()
               if line.startswith(("exp_gamma", "wei_gamma"))) == 2


@pytest.mark.parametrize("bad_option", [
    ["--model", "cox"],
    ["--model", "exp_lognormal", "--gh-nodes", "3"],
    ["--model", "exp_lognormal", "--gh-nodes", "200"],
    ["--horizon", "0"],
    ["--horizon", "-1"],
    ["--horizon", "nan"],
    ["--horizon", "inf"],
    ["--max-iter", "-3"],
], ids=lambda option: " ".join(option))
def test_fit_exit_codes(tmp_path, demo_dataset, capsys, monkeypatch, bad_option):
    assert main(["fit", demo_dataset, *bad_option]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["fit", str(tmp_path / "absent.csv")]) == 3
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("time,event\n1.0,1\n")
    assert main(["fit", str(garbled)]) == 3

    def explode(path):
        raise NumericError("synthetic overflow")

    monkeypatch.setattr(cli, "read_dataset_csv", explode)
    assert main(["fit", demo_dataset]) == 4
    capsys.readouterr()


def test_fit_all_models_share_one_spline_basis_per_df(demo_dataset, capsys, monkeypatch):
    """fit --model all prepares the dataset once: the two frailty families
    of each rp df share its basis, so one QR runs per df."""
    qr = np.linalg.qr
    columns = []

    def counted(a):
        columns.append(a.shape[1])
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counted)
    assert main(["fit", demo_dataset, "--model", "all"]) == 0
    capsys.readouterr()
    assert sorted(columns) == [3, 5, 9]


def test_fit_a_dataset_without_treated_events_is_a_data_error(tmp_path, demo_dataset, capsys):
    """The dataset's checks run once, before any model: an arm without
    events exits 3 with the check's message and fits nothing."""
    lines = Path(demo_dataset).read_text().splitlines()
    head, rows = lines[0], [line.split(",") for line in lines[1:]]
    treat, event = head.split(",").index("treat"), head.split(",").index("event")
    for row in rows:
        if row[treat] == "1":
            row[event] = "0"
    path = tmp_path / "no_treated_events.csv"
    path.write_text("\n".join([head] + [",".join(row) for row in rows]) + "\n")
    assert main(["fit", str(path), "--model", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: cannot fit with zero events in the treated arm\n"
    assert captured.out == ""


def test_fit_prints_dash_when_lle_quadrature_fails(demo_dataset, capsys, monkeypatch):
    def failing_functional(result, horizon):
        def functional(vec):
            raise QuadratureError("log-Normal marginal survival is not finite")
        return functional

    monkeypatch.setattr(harness, "lle_functional", failing_functional)
    assert main(["fit", demo_dataset, "--model", "exp_gamma"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("exp_gamma"))
    assert " - " in row


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_prints_dash_when_the_time_rule_overflows(demo_dataset, capsys):
    """A finite horizon at which the LLE's time rule overflows is a failed
    LLE beside the fit's other estimands, not a configuration error."""
    assert main(["fit", demo_dataset, "--model", "exp_gamma", "--horizon", "1e308"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("exp_gamma"))
    assert row.split()[6] == "-"


def test_fit_builds_one_lle_grid_per_baseline(demo_dataset, capsys, monkeypatch):
    """The LLE and its gradient come from one pass over one grid, which the
    fits of a parametric baseline share in a process: a second fit command
    builds none."""
    original = estimands._grid_prepared
    calls = []

    def counted(baseline, basis, to_raw, t, x):
        calls.append(baseline if basis is None else f"rp{basis.df}")
        return original(baseline, basis, to_raw, t, x)

    estimands._lle_grid.cache_clear()
    monkeypatch.setattr(estimands, "_grid_prepared", counted)
    for _ in range(2):
        assert main(["fit", demo_dataset, "--model", "exp_gamma,wei_gamma,wei_lognormal"]) == 0
    capsys.readouterr()
    estimands._lle_grid.cache_clear()
    assert calls == ["exp", "wei"]


MC_CONFIG = CUSTOM_SCENARIO + """\
scenarios = demo
models = exp_gamma
n_sim = 4
master_seed = 99
workers = 1
"""


def test_mc_writes_all_outputs(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    out = tmp_path / "mc_out"
    rc = main(["mc", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 1 + 4 * 3   # 4 reps, three estimands each
    assert (out / "summary.csv").exists()
    assert (out / "plot_data.csv").exists()
    assert "wrote" in capsys.readouterr().out

    # same seed with two workers must give byte-identical results
    out2 = tmp_path / "mc_out2"
    rc = main(["mc", "--config", str(cfg), "--workers", "2", "--out", str(out2)])
    assert rc == 0
    assert (out2 / "results.csv").read_bytes() == (out / "results.csv").read_bytes()
    capsys.readouterr()


def test_summarize_round_trips_mc_output(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    out = tmp_path / "mc_out"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    redo = tmp_path / "redo"
    rc = main(["summarize", str(out / "results.csv"),
               "--config", str(cfg), "--out", str(redo)])
    assert rc == 0
    assert (redo / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()
    assert (redo / "plot_data.csv").read_bytes() == (out / "plot_data.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["mc", "--scenarios", "no_such", "--models", "exp_gamma", "--nsim", "2"],
    ["mc", "--scenarios", "all", "--models", "not_a_model", "--nsim", "2"],
    ["mc", "--scenarios", "all", "--models", "exp_gamma", "--nsim", "0"],
    ["mc", "--scenarios", "all", "--models", "exp_gamma", "--nsim", "2",
     "--workers", "0"],
    ["mc", "--scenarios", "all", "--models", "exp_lognormal", "--nsim", "2",
     "--gh-nodes", "3"],
    ["mc", "--scenarios", "all", "--models", "exp_lognormal", "--nsim", "2",
     "--gh-nodes", "200"],
])
def test_mc_config_errors(tmp_path, argv, capsys):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("scenarios,models,repeated", [
    ("exp_gamma_t025_750x2,exp_gamma_t025_750x2", "exp_gamma", "exp_gamma_t025_750x2"),
    ("exp_gamma_t025_750x2", "exp_gamma,exp_gamma", "exp_gamma"),
])
def test_mc_rejects_a_repeated_id(tmp_path, capsys, scenarios, models, repeated):
    """A repeated scenario or model id is a configuration error that names
    the id, not a run whose cells hold each record twice."""
    assert main(["mc", "--scenarios", scenarios, "--models", models, "--nsim", "1",
                 "--out", str(tmp_path / "x")]) == 2
    assert f"id {repeated!r} is repeated" in capsys.readouterr().err


def test_summarize_missing_results(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "y")])
    assert rc == 3
    capsys.readouterr()


# records the thread variables at the moment numpy is first imported, then
# runs the package as ``python -m frailsim --help`` does
_NUMPY_IMPORT_SPY = """
import json, os, runpy, sys
names = json.loads(sys.argv[1])
seen = {}

class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in names)

sys.meta_path.insert(0, NumpyImportSpy())
sys.argv[1:] = ["--help"]
try:
    runpy.run_module("frailsim", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(seen))
"""


def _python(code: str, *args: str, **env: str) -> str:
    """Run code in a fresh interpreter whose environment lacks the thread
    variables, plus env, and return its last line of output."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(frailsim.__file__).resolve().parents[1])
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [src, clean.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env={**clean, **env},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("preset", [None, "2"])
def test_python_m_frailsim_sets_thread_variables_before_numpy_loads(preset):
    """Unset, each variable reads "1" when numpy loads; a value the caller
    set, here "2", is kept."""
    env = {} if preset is None else dict.fromkeys(THREAD_VARIABLES, preset)
    seen = json.loads(_python(_NUMPY_IMPORT_SPY, json.dumps(THREAD_VARIABLES), **env))
    assert seen == dict.fromkeys(THREAD_VARIABLES, preset or "1")


# runs the installed command's entry point once per argv in a process where
# importing scipy fails; the pool's forked workers inherit the block
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from frailsim.__main__ import main
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv[1:] = argv
    codes.append(main())
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps([codes, loaded]))
"""


def test_every_cli_command_runs_with_scipy_blocked(tmp_path):
    """The CLI needs numpy alone: simulate, fit --model all (log-Normal fits
    centre their rule at a Wright omega mode, rp fits invert a triangular
    factor, each LLE takes the spline weights of a tridiagonal solve), mc at
    2 workers with its mixture truths, and summarize all exit 0 where
    importing scipy fails, and no scipy module is loaded."""
    data = tmp_path / "data"
    dataset = data / "ww2_mixturenormal_t075_20x150_rep0.csv"
    commands = [
        ["simulate", "--scenario", "ww2_mixturenormal_t075_20x150", "--seed", "7",
         "--out", str(data)],
        ["fit", str(dataset), "--model", "all", "--out", str(tmp_path / "fit")],
        ["mc", "--scenarios", "exp_mixturenormal_t075_750x2,ww1_lognormal_t025_750x2",
         "--models", "exp_lognormal,rp3_gamma", "--nsim", "2", "--seed", "7",
         "--workers", "2", "--out", str(tmp_path / "mc")],
        ["summarize", str(tmp_path / "mc" / "results.csv"), "--out", str(tmp_path / "sum")],
    ]
    codes, loaded = json.loads(_python(_WITHOUT_SCIPY, json.dumps(commands)))
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    fits = json.loads((tmp_path / "fit" / "fit_ww2_mixturenormal_t075_20x150_rep0.json").read_text())
    assert len(fits) == 12 and all(rec["converged"] for rec in fits)
    assert (tmp_path / "sum" / "summary.csv").read_bytes() == (
        tmp_path / "mc" / "summary.csv").read_bytes()


# imports every module of the package, then integrates a line, where
# importing scipy fails
_MODULES_WITHOUT_SCIPY = """
import importlib, json, pkgutil, sys
sys.modules["scipy"] = None
import frailsim
names = sorted(m.name for m in pkgutil.iter_modules(frailsim.__path__, "frailsim."))
for name in names:
    importlib.import_module(name)
from frailsim.splines import interp_integrate
area = interp_integrate([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0], 0.0, 3.0)
print(json.dumps([names, area]))
"""


def test_every_module_imports_and_interp_integrate_runs_with_scipy_blocked():
    names, area = json.loads(_python(_MODULES_WITHOUT_SCIPY))
    assert len(names) == 10 and "frailsim.splines" in names
    assert abs(area - 12.0) <= 1e-12


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    code = ("import json, os, sys, frailsim; "
            "print(json.dumps(['numpy' in sys.modules, "
            f"[os.environ.get(v) for v in {list(THREAD_VARIABLES)!r}]]))")
    assert json.loads(_python(code)) == [False, [None] * len(THREAD_VARIABLES)]
