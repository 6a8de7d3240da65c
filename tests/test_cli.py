"""Command-line interface tests: config parsing, subcommands, exit codes."""
from __future__ import annotations

import json

import pytest

from frailsim import cli
from frailsim.cli import (
    _parse_baseline,
    build_parser,
    main,
    read_config,
    scenario_catalog,
)
from frailsim.exceptions import ConfigError, NumericError, QuadratureError
from frailsim.harness import derive_seed
from frailsim.hazards import Exponential, Weibull


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
])
def test_parse_baseline_rejects(text):
    with pytest.raises(ConfigError):
        _parse_baseline(text)


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


def test_fit_two_models_two_rows(demo_dataset, capsys):
    rc = main(["fit", demo_dataset, "--model", "exp_gamma,wei_gamma"])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for line in out.splitlines()
               if line.startswith(("exp_gamma", "wei_gamma"))) == 2


def test_fit_exit_codes(tmp_path, demo_dataset, capsys, monkeypatch):
    assert main(["fit", demo_dataset, "--model", "cox"]) == 2
    assert main(["fit", str(tmp_path / "absent.csv")]) == 3
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("time,event\n1.0,1\n")
    assert main(["fit", str(garbled)]) == 3

    def explode(path):
        raise NumericError("synthetic overflow")

    monkeypatch.setattr(cli, "read_dataset_csv", explode)
    assert main(["fit", demo_dataset]) == 4
    capsys.readouterr()


def test_fit_prints_dash_when_lle_quadrature_fails(demo_dataset, capsys, monkeypatch):
    def failing_functional(result, horizon):
        def functional(vec):
            raise QuadratureError("log-Normal marginal survival is not finite")
        return functional

    monkeypatch.setattr(cli, "lle_functional", failing_functional)
    assert main(["fit", demo_dataset, "--model", "exp_gamma"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("exp_gamma"))
    assert " - " in row


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
])
def test_mc_config_errors(tmp_path, argv, capsys):
    rc = main(argv + ["--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_summarize_missing_results(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "y")])
    assert rc == 3
    capsys.readouterr()
