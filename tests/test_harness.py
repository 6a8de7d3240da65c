"""Tests for the replication engine, filtering, and performance summaries."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from frailsim import estimands, harness
from frailsim.estimands import EstimandName, true_estimands
from frailsim.exceptions import DataError, FitSetupError, NumericError, QuadratureError
from frailsim.fitting import model_from_id
from frailsim.harness import (
    PLOT_HEADER,
    RESULTS_HEADER,
    SUMMARY_HEADER,
    PerformanceSummary,
    ReplicationRecord,
    derive_seed,
    filter_convergence,
    performance,
    plot_rows,
    read_results_csv,
    run_cell,
    summarize,
    write_plot_csv,
    write_results_csv,
    write_summary_csv,
)
from frailsim.simulate import make_scenario


def _rec(rep, est, se, converged=True, *, sid="s", mid="m",
         estimand=EstimandName.LOG_HR, filtered=False):
    return ReplicationRecord(sid, mid, rep, estimand, est, se, converged,
                             filtered=filtered)


def test_derive_seed_is_stable_and_wide():
    # frozen regression value: changing the derivation would silently
    # re-randomize every published result
    assert derive_seed(20240901, "exp_gamma_t025_20x150", 0) == 1279570384423924124
    seeds = {derive_seed(1, "a", r) for r in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)
    assert derive_seed(1, "a", 0) != derive_seed(1, "b", 0)


def test_performance_hand_example():
    recs = [
        _rec(0, -0.4, 0.2),
        _rec(1, -0.5, 0.2),
        _rec(2, -0.6, 0.01),
        _rec(3, float("nan"), float("nan"), converged=False),
    ]
    p = performance(recs, truth=-0.5)
    assert p.n_used == 3
    assert p.bias == 0.0
    assert abs(p.bias_mcse - 0.1 / math.sqrt(3)) <= 1e-15
    # the third interval is far too narrow to cover the truth
    assert p.coverage == pytest.approx(2.0 / 3.0)
    assert p.coverage_mcse == pytest.approx(math.sqrt((2 / 3) * (1 / 3) / 3))
    assert p.mse == pytest.approx(0.02 / 3)
    assert p.empirical_se == pytest.approx(0.1)
    assert p.mean_model_se == pytest.approx(0.41 / 3)
    assert p.convergence_rate == 0.75


def test_performance_coverage_mcse_formula_pins():
    # 950/1000 covering: MCSE = sqrt(.95 * .05 / 1000) = 0.0068...
    recs = [_rec(i, 0.0, 1.0) for i in range(950)]
    recs += [_rec(950 + i, 10.0, 0.1) for i in range(50)]
    p = performance(recs, truth=0.0)
    assert p.coverage == 0.95
    assert abs(p.coverage_mcse - 0.0068) <= 1e-4
    # 500/1000: MCSE = sqrt(.25 / 1000) = 0.0158...
    recs = [_rec(i, 0.0, 1.0) for i in range(500)]
    recs += [_rec(500 + i, 10.0, 0.1) for i in range(500)]
    p = performance(recs, truth=0.0)
    assert p.coverage == 0.5
    assert abs(p.coverage_mcse - 0.0158) <= 1e-4


def test_performance_excludes_filtered_records():
    recs = [_rec(0, -0.4, 0.2), _rec(1, -0.6, 0.2),
            _rec(2, 99.0, 0.2, filtered=True)]
    p = performance(recs, truth=-0.5)
    assert p.n_used == 2
    assert p.bias == 0.0


def test_performance_validation():
    with pytest.raises(DataError):
        performance([], truth=0.0)
    with pytest.raises(DataError):
        performance([_rec(0, 0.0, 1.0)], truth=0.0)  # fewer than 2 usable
    mixed = [_rec(0, 0.0, 1.0), _rec(1, 0.0, 1.0, mid="other")]
    with pytest.raises(DataError):
        performance(mixed, truth=0.0)


def test_filter_convergence_strict_cutoff():
    """Base estimates 0..10 give median 5.5 and IQR 5.5 once the outlier
    joins the sample, so the robust z of an outlier X is (X - 5.5)/5.5:
    X = 60.5 sits exactly at 10 (kept, the rule is strict) and X = 66
    at 11 (filtered)."""
    base = [float(v) for v in range(11)]
    for outlier, expect in ((60.5, False), (66.0, True)):
        recs = [_rec(i, v, 1.0) for i, v in enumerate(base + [outlier])]
        out = filter_convergence(recs)
        assert out[-1].filtered is expect
        assert not any(r.filtered for r in out[:-1])


def test_filter_convergence_zero_iqr_filters_nothing():
    recs = [_rec(i, 3.0, se, True) for i, se in enumerate([1.0] * 11 + [1e6])]
    out = filter_convergence(recs)
    assert not any(r.filtered for r in out)


def test_filter_convergence_flags_se_outliers_too():
    ses = [1.0 + 0.1 * i for i in range(11)] + [100.0]
    recs = [_rec(i, 0.001 * i, se) for i, se in enumerate(ses)]
    out = filter_convergence(recs)
    assert out[-1].filtered
    assert sum(r.filtered for r in out) == 1


def test_filter_convergence_groups_independently():
    group_a = [_rec(i, v, 1.0, sid="a") for i, v in enumerate(
        [float(v) for v in range(11)] + [66.0])]
    group_b = [_rec(i, float(v), 1.0, sid="b") for i, v in enumerate(range(12))]
    out = filter_convergence(group_a + group_b)
    assert sum(r.filtered for r in out) == 1
    assert out[11].filtered  # the group-a outlier


def test_filter_convergence_ignores_nonconverged_and_small_groups():
    recs = [_rec(0, 1e9, 1.0, converged=False)] + [_rec(1, 0.0, 1.0)]
    out = filter_convergence(recs)  # one converged record: nothing to do
    assert not any(r.filtered for r in out)
    assert out[0].converged is False


def _strip(recs):
    return [
        (r.scenario_id, r.model_id, r.rep, r.estimand, r.estimate, r.se,
         r.converged, r.filtered)
        for r in recs
    ]


def _grid():
    scenarios = [make_scenario("exp", "gamma", 0.25, 30, 4),
                 make_scenario("wei", "lognormal", 0.5, 30, 4)]
    specs = [model_from_id("exp_gamma"), model_from_id("wei_gamma")]
    return scenarios, specs


def test_run_cell_worker_count_invariance():
    sc = make_scenario("exp", "gamma", 0.25, 30, 4)
    spec = model_from_id("exp_gamma")
    seq = run_cell([sc], [spec], 6, 4242, workers=1)
    par = run_cell([sc], [spec], 6, 4242, workers=2)
    assert _strip(seq) == _strip(par)

    # a scenario x model grid: the same records at any worker count, and
    # the same as running each (scenario, model) on its own, in that order
    scenarios, specs = _grid()
    grid_seq = run_cell(scenarios, specs, 3, 4242, workers=1)
    grid_par = run_cell(scenarios, specs, 3, 4242, workers=2)
    separate = [r for s in scenarios for m in specs
                for r in run_cell([s], [m], 3, 4242, workers=1)]
    assert _strip(grid_seq) == _strip(grid_par) == _strip(separate)


def test_run_cell_emits_three_estimands_per_rep():
    sc = make_scenario("exp", "gamma", 0.25, 30, 4)
    recs = run_cell([sc], [model_from_id("exp_gamma")], 3, 7, workers=1)
    assert len(recs) == 9
    per_rep = {}
    for r in recs:
        per_rep.setdefault(r.rep, []).append(r.estimand)
    for rep, names in per_rep.items():
        assert names == [EstimandName.LOG_HR, EstimandName.LLE,
                         EstimandName.FRAILTY_VAR]


def test_run_cell_simulates_each_dataset_once(monkeypatch):
    scenarios, specs = _grid()
    calls = []
    original = harness.generate_dataset

    def counted(scenario, seed):
        calls.append((scenario.id, seed))
        return original(scenario, seed)

    monkeypatch.setattr(harness, "generate_dataset", counted)
    recs = run_cell(scenarios, specs, 3, 7, workers=1)
    # one dataset per (scenario, rep), shared by both models
    assert len(calls) == 2 * 3
    assert len(set(calls)) == len(calls)
    assert len(recs) == 2 * 2 * 3 * 3

    def broken(scenario, seed):
        raise NumericError("boom")

    monkeypatch.setattr(harness, "generate_dataset", broken)
    recs = run_cell(scenarios, specs, 3, 7, workers=1)
    # every model of every failed replication: 2 models x 3 reps x 3
    # estimands per scenario
    for sc in scenarios:
        mine = [r for r in recs if r.scenario_id == sc.id]
        assert len(mine) == 2 * 3 * 3
        assert all(not r.converged and math.isnan(r.estimate)
                   and math.isnan(r.se) for r in mine)
    assert len(recs) == 2 * 2 * 3 * 3


def test_run_cell_simulation_programming_error_propagates(monkeypatch):
    def broken(scenario, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "generate_dataset", broken)
    scenarios, specs = _grid()
    with pytest.raises(RuntimeError, match="boom"):
        run_cell(scenarios, specs, 2, 7, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_cell_leaves_summarize_no_truth_to_compute(workers):
    scenarios, specs = _grid()
    true_estimands.cache_clear()
    recs = run_cell(scenarios, specs, 2, 7, workers=workers)
    misses = true_estimands.cache_info().misses
    assert misses == len(scenarios)
    summaries = summarize(recs, {sc.id: sc for sc in scenarios})
    assert summaries
    assert true_estimands.cache_info().misses == misses


@pytest.mark.parametrize("workers", [1, 2])
def test_run_cell_raises_a_failing_truth(monkeypatch, workers):
    def failing(scenario):
        raise QuadratureError("truth did not converge")

    monkeypatch.setattr(harness, "true_estimands", failing)
    scenarios, specs = _grid()
    with pytest.raises(QuadratureError, match="truth"):
        run_cell(scenarios, specs, 2, 7, workers=workers)


def test_run_cell_converts_failures_to_nan_records(monkeypatch):
    def broken_fit(spec, data):
        raise FitSetupError("boom")

    monkeypatch.setattr(harness, "fit", broken_fit)
    sc = make_scenario("exp", "gamma", 0.25, 5, 2)
    recs = run_cell([sc], [model_from_id("exp_gamma")], 2, 7, workers=1)
    assert len(recs) == 6
    assert all(not r.converged for r in recs)
    assert all(math.isnan(r.estimate) for r in recs)


def test_run_cell_fit_failure_spoils_only_that_model(monkeypatch):
    original = harness.fit

    def fit_all_but_weibull(spec, data):
        if spec.id == "wei_gamma":
            raise FitSetupError("boom")
        return original(spec, data)

    monkeypatch.setattr(harness, "fit", fit_all_but_weibull)
    scenarios, specs = _grid()
    recs = run_cell(scenarios[:1], specs, 2, 7, workers=1)
    assert [r.model_id for r in recs] == ["exp_gamma"] * 6 + ["wei_gamma"] * 6
    assert all(r.converged for r in recs[:6])
    assert all(not r.converged and math.isnan(r.estimate) for r in recs[6:])


def test_run_cell_a_dataset_without_events_in_one_arm_spoils_every_model(monkeypatch):
    """The checks run once per dataset, before any fit: a dataset whose
    treated arm has no events gives converged=false records for every
    model, and no model is fitted to it."""
    original = harness.generate_dataset

    def no_treated_events(scenario, seed):
        data = original(scenario, seed)
        return dataclasses.replace(data, event=np.where(data.treat == 1, 0, data.event))

    def unreachable(spec, data):
        raise AssertionError("fit called on a dataset that failed its checks")

    monkeypatch.setattr(harness, "generate_dataset", no_treated_events)
    monkeypatch.setattr(harness, "fit", unreachable)
    specs = [model_from_id(m) for m in ("exp_gamma", "wei_lognormal", "rp3_gamma")]
    recs = run_cell([make_scenario("exp", "gamma", 0.25, 30, 4)], specs, 2, 7, workers=1)
    assert len(recs) == 3 * 2 * 3
    assert all(not r.converged and math.isnan(r.estimate) for r in recs)


def test_run_cell_a_collinear_spline_basis_spoils_only_its_df(monkeypatch):
    """The rp collinearity check runs per df: a dataset on which only the
    rp9 basis is collinear (its QR factor given a zero last pivot) gives
    NaN records for rp9_gamma and rp9_lognormal alone."""
    qr = np.linalg.qr

    def collinear_at_nine(a):
        q, r = qr(a)
        if a.shape[1] == 9:
            r = r.copy()
            r[-1, -1] = 0.0
        return q, r

    monkeypatch.setattr(np.linalg, "qr", collinear_at_nine)
    ids = ("exp_gamma", "rp3_gamma", "rp9_gamma", "rp9_lognormal", "rp5_lognormal")
    recs = run_cell([make_scenario("wei", "gamma", 0.5, 20, 50)],
                    [model_from_id(m) for m in ids], 1, 7, workers=1)
    assert [r.model_id for r in recs] == [m for m in ids for _ in range(3)]
    for r in recs:
        assert r.converged is not r.model_id.startswith("rp9")
        assert math.isnan(r.estimate) is r.model_id.startswith("rp9")


def test_run_cell_fit_programming_error_propagates(monkeypatch):
    def broken_fit(spec, data):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "fit", broken_fit)
    sc = make_scenario("exp", "gamma", 0.25, 5, 2)
    with pytest.raises(RuntimeError, match="boom"):
        run_cell([sc], [model_from_id("exp_gamma")], 2, 7, workers=1)


def test_run_cell_builds_one_lle_grid_per_fit(monkeypatch):
    """The LLE and its gradient come from one pass over one grid."""
    original = estimands._grid_prepared
    calls = []

    def counted(result, t, x):
        calls.append(result.spec.id)
        return original(result, t, x)

    monkeypatch.setattr(estimands, "_grid_prepared", counted)
    scenarios, specs = _grid()
    recs = run_cell(scenarios[:1], specs, 2, 7, workers=1)
    assert all(r.converged for r in recs)
    assert sorted(calls) == ["exp_gamma"] * 2 + ["wei_gamma"] * 2


def _failing_lle_functional(error):
    def lle_functional(result, horizon):
        def functional(vec):
            raise error
        return functional
    return lle_functional


def test_run_cell_lle_numeric_failure_keeps_the_other_estimands(monkeypatch):
    monkeypatch.setattr(harness, "lle_functional",
                        _failing_lle_functional(QuadratureError("not finite")))
    sc = make_scenario("exp", "gamma", 0.25, 30, 4)
    recs = run_cell([sc], [model_from_id("exp_gamma")], 2, 7, workers=1)
    assert len(recs) == 6
    for r in recs:
        if r.estimand is EstimandName.LLE:
            assert not r.converged and math.isnan(r.estimate) and math.isnan(r.se)
        else:
            assert r.converged and math.isfinite(r.estimate) and r.se > 0


def test_run_cell_lle_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(harness, "lle_functional", _failing_lle_functional(TypeError("bug")))
    sc = make_scenario("exp", "gamma", 0.25, 30, 4)
    with pytest.raises(TypeError, match="bug"):
        run_cell([sc], [model_from_id("exp_gamma")], 2, 7, workers=1)


def test_run_cell_rejects_empty_run():
    sc = make_scenario("exp", "gamma", 0.25, 5, 2)
    with pytest.raises(ValueError):
        run_cell([sc], [model_from_id("exp_gamma")], 0, 7)


@pytest.mark.parametrize("horizon", [1.0, 5.0])
def test_run_cell_rejects_a_horizon(horizon):
    """summarize scores every LLE against the truth over the scenario's
    censor_time (5 here), so run_cell takes no other horizon, and None is
    the only way to ask for that one."""
    sc = make_scenario("exp", "gamma", 0.25, 5, 2)
    with pytest.raises(ValueError, match="horizon must be None"):
        run_cell([sc], [model_from_id("exp_gamma")], 1, 7, horizon=horizon)


def test_run_cell_fits_a_replication_whose_information_lu_finds_singular():
    """Rep 8 of ww2_mixturenormal_t50_20x150 (seed 20240901), whose
    exp_gamma fit reaches an information that has a Cholesky factor but
    that an LU solve calls singular, gives its records like every rep."""
    sc = make_scenario("ww2", "mixturenormal", 50, 20, 150)
    records = run_cell([sc], [model_from_id("exp_gamma")], 9, 20240901)
    assert [(r.rep, r.estimand) for r in records] == [
        (rep, estimand) for rep in range(9) for estimand in harness.ESTIMAND_ORDER]


def _summary_fixture():
    """Records for one real scenario: an exp_gamma cell and an
    exp_lognormal cell, 4 reps each, all converged."""
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    recs = []
    for mid in ("exp_gamma", "exp_lognormal"):
        for rep in range(4):
            recs.append(ReplicationRecord(sc.id, mid, rep, EstimandName.LOG_HR,
                                          -0.5 + 0.01 * rep, 0.1, True))
            recs.append(ReplicationRecord(sc.id, mid, rep, EstimandName.LLE,
                                          0.3 + 0.01 * rep, 0.05, True))
            recs.append(ReplicationRecord(sc.id, mid, rep, EstimandName.FRAILTY_VAR,
                                          0.25 + 0.01 * rep, 0.08, True))
    return sc, recs


def test_summarize_skips_frailty_variance_on_family_mismatch():
    sc, recs = _summary_fixture()
    summaries = summarize(recs, {sc.id: sc})
    keys = {(s.model_id, s.estimand) for s in summaries}
    assert ("exp_gamma", EstimandName.FRAILTY_VAR) in keys
    assert ("exp_lognormal", EstimandName.FRAILTY_VAR) not in keys
    assert ("exp_lognormal", EstimandName.LOG_HR) in keys
    assert ("exp_lognormal", EstimandName.LLE) in keys


def test_summarize_uses_scenario_truths():
    sc, recs = _summary_fixture()
    summaries = {(s.model_id, s.estimand): s for s in summarize(recs, {sc.id: sc})}
    log_hr = summaries[("exp_gamma", EstimandName.LOG_HR)]
    assert log_hr.bias == pytest.approx(-0.485 - (-0.5))
    fv = summaries[("exp_gamma", EstimandName.FRAILTY_VAR)]
    assert fv.bias == pytest.approx(0.265 - 0.25)


def test_summarize_unknown_scenario():
    recs = [_rec(0, 0.0, 1.0, sid="mystery"), _rec(1, 0.0, 1.0, sid="mystery")]
    with pytest.raises(DataError):
        summarize(recs, {})


def test_summarize_warns_on_heavy_filtering():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    recs = [ReplicationRecord(sc.id, "exp_gamma", rep, EstimandName.LOG_HR,
                              -0.5, 0.1, True, filtered=(rep < 2))
            for rep in range(20)]
    with pytest.warns(UserWarning, match="filtered"):
        summarize(recs, {sc.id: sc})


def test_summarize_skips_cells_with_too_few_usable():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    recs = [ReplicationRecord(sc.id, "exp_gamma", 0, EstimandName.LOG_HR,
                              -0.5, 0.1, True)]
    assert summarize(recs, {sc.id: sc}) == []


def test_plot_rows_cover_every_cell_and_measure():
    sc, recs = _summary_fixture()
    summaries = summarize(recs, {sc.id: sc})
    rows = plot_rows(summaries, recs, {sc.id: sc})
    # exp_gamma: 3 estimands, exp_lognormal: 2 (FrailtyVar dropped), 3 measures
    assert len(rows) == (3 + 2) * 3
    assert {r["measure"] for r in rows} == {"bias", "coverage", "mse"}
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["baseline"] == "exp" for r in rows)
    assert all(r["n_clusters"] == 20 for r in rows)


def test_plot_rows_mark_insufficient_cells():
    sc = make_scenario("exp", "gamma", 0.25, 20, 150)
    recs = [ReplicationRecord(sc.id, "exp_gamma", 0, EstimandName.LOG_HR,
                              float("nan"), float("nan"), False)]
    rows = plot_rows([], recs, {sc.id: sc})
    assert len(rows) == 3
    assert all(r["status"] == "insufficient" for r in rows)
    assert all(r["value"] is None for r in rows)


def test_results_csv_round_trip(tmp_path):
    recs = [
        _rec(0, -0.512345678901234567, 0.987654321e-3),
        _rec(1, float("nan"), float("nan"), converged=False),
        _rec(2, 0.25, 0.08, estimand=EstimandName.FRAILTY_VAR, filtered=True),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(recs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    back = read_results_csv(str(path))
    assert len(back) == 3
    assert back[0].estimate == recs[0].estimate  # .17g is lossless
    assert back[0].se == recs[0].se
    assert math.isnan(back[1].estimate)
    assert back[1].converged is False
    assert back[2].filtered is True
    assert back[2].estimand is EstimandName.FRAILTY_VAR


def test_read_results_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,the,right,header\n")
    with pytest.raises(DataError):
        read_results_csv(str(path))
    path.write_text(RESULTS_HEADER + "\ns,m,0,LogHR,1.0\n")
    with pytest.raises(DataError):
        read_results_csv(str(path))
    with pytest.raises(DataError):
        read_results_csv(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("flags,message", [
    ("2,0", "converged must be 0 or 1, got 2"),
    ("-1,0", "converged must be 0 or 1, got -1"),
    ("1,2", "filtered must be 0 or 1, got 2"),
    ("0,-1", "filtered must be 0 or 1, got -1"),
])
def test_read_results_csv_rejects_flags_other_than_0_or_1(tmp_path, flags, message):
    """A converged or filtered value other than 0 or 1 is a DataError that
    names its line, not a true flag that summarize would count."""
    path = tmp_path / "results.csv"
    path.write_text(RESULTS_HEADER + "\ns,m,0,LogHR,1.0,0.1,1,0\n"
                    f"s,m,1,LogHR,1.0,0.1,{flags}\n")
    with pytest.raises(DataError, match=f"line 3: {message}"):
        read_results_csv(str(path))


def test_summary_and_plot_csv_headers(tmp_path):
    sc, recs = _summary_fixture()
    summaries = summarize(recs, {sc.id: sc})
    rows = plot_rows(summaries, recs, {sc.id: sc})
    spath = tmp_path / "summary.csv"
    ppath = tmp_path / "plot.csv"
    write_summary_csv(summaries, str(spath))
    write_plot_csv(rows, str(ppath))
    assert spath.read_text().splitlines()[0] == SUMMARY_HEADER
    plot_lines = ppath.read_text().splitlines()
    assert plot_lines[0] == PLOT_HEADER
    assert len(plot_lines) == 1 + len(rows)
    summary_lines = spath.read_text().splitlines()
    assert len(summary_lines) == 1 + len(summaries)
    first = dict(zip(SUMMARY_HEADER.split(","), summary_lines[1].split(",")))
    assert first["scenario_id"] == sc.id
    assert first["n_used"] == "4"
