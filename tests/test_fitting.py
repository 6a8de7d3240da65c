"""Tests for shared-frailty model specification, likelihoods, and fitting."""
from __future__ import annotations

import dataclasses
import functools
import math
import threading
import warnings

import numpy as np
import pytest

from frailsim import estimands, fitting
from frailsim.estimands import MarginalModel, lle_functional
from frailsim.exceptions import FitSetupError
from frailsim.fitting import (
    ModelParams,
    ModelSpec,
    all_model_ids,
    fit,
    gamma_marginal_loglik,
    information_criteria,
    lognormal_marginal_loglik,
    model_from_id,
    pack_params,
    unpack_params,
)
from frailsim.harness import derive_seed
from frailsim.hazards import FrailtyFamily
from frailsim.quadrature import gh_rule, lognormal_laplace
from frailsim.splines import basis_derivative, basis_eval, place_knots
from frailsim.simulate import (
    ClusteredDataset,
    generate_dataset,
    make_scenario,
    read_dataset_csv,
    write_dataset_csv,
)

from oracles import (
    conditional_pieces,
    knot_times,
    marginal_model,
    params_from_trans,
    rule_lle,
    tanh_sinh,
    tanh_sinh_lle,
)


def test_model_id_catalog():
    ids = all_model_ids()
    assert len(ids) == 12
    assert ids[0] == "exp_gamma"
    for model_id in ids:
        spec = model_from_id(model_id)
        assert spec.id == model_id
    assert {model_from_id(i).baseline for i in ids} == {"exp", "wei", "gom", "rp"}
    assert {model_from_id(i).frailty for i in ids} == {
        FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL}


@pytest.mark.parametrize("bad", ["cox_gamma", "exp", "rp4_gamma", "exp_mixturenormal"])
def test_model_from_id_rejects_unknown(bad):
    with pytest.raises(ValueError):
        model_from_id(bad)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("rp", FrailtyFamily.GAMMA)  # df required
    with pytest.raises(ValueError):
        ModelSpec("exp", FrailtyFamily.GAMMA, df=3)  # df forbidden
    with pytest.raises(ValueError):
        ModelSpec("exp", FrailtyFamily.MIXTURE_NORMAL)  # not a fitting family
    with pytest.raises(ValueError):
        ModelSpec("rp", FrailtyFamily.GAMMA, df=4)
    for nodes in (6, 129):
        with pytest.raises(ValueError, match=r"gh_nodes must be in \[7, 128\]"):
            ModelSpec("exp", FrailtyFamily.LOG_NORMAL, gh_nodes=nodes)


def _tiny_cluster():
    times = np.array([0.8, 2.1, 4.9])
    events = np.array([1, 0, 1], dtype=np.int8)
    treats = np.array([0, 1, 1], dtype=np.int8)
    data = ClusteredDataset(
        cluster=np.zeros(3, dtype=np.int64),
        time=times, event=events, treat=treats,
    )
    return data, times, events, treats


def _numeric_cluster_loglik(spec, params, times, events, treats, theta):
    """Marginalize the cluster likelihood over Gamma(1/theta, 1/theta)
    frailty by brute-force tanh-sinh integration."""
    pieces = [conditional_pieces(spec, params, float(t), float(x))
              for t, x in zip(times, treats)]
    hs = np.array([p[0] for p in pieces])
    Hs = np.array([p[1] for p in pieces])
    k = 1.0 / theta

    def integrand(a):
        dens = a ** (k - 1.0) * np.exp(-k * a) * k**k / math.gamma(k)
        lik = np.ones_like(a)
        for h_i, H_i, e_i in zip(hs, Hs, events):
            lik = lik * np.exp(-a * H_i) * np.where(e_i, a * h_i, 1.0)
        return dens * lik

    return math.log(tanh_sinh(integrand, 0.0, 60.0, tol=1e-13))


@pytest.mark.parametrize(
    "model_id,baseline_params,beta,theta",
    [
        ("exp_gamma", [0.4], -0.3, 0.6),
        ("wei_gamma", [0.5, 0.8], -0.5, 0.25),
        ("gom_gamma", [0.5, 0.2], 0.2, 1.1),
    ],
)
def test_gamma_closed_form_matches_numeric_marginal(
        model_id, baseline_params, beta, theta):
    spec = model_from_id(model_id)
    params = ModelParams(spec, np.array(baseline_params, dtype=float), beta, theta)
    data, times, events, treats = _tiny_cluster()
    closed = gamma_marginal_loglik(spec, params, data)
    numeric = _numeric_cluster_loglik(spec, params, times, events, treats, theta)
    assert abs(closed - numeric) <= 1e-8 * abs(numeric)


def test_gamma_loglik_defined_for_all_censored_cluster():
    # evaluation has no event-count precondition; only fitting does
    spec = model_from_id("exp_gamma")
    params = ModelParams(spec, np.array([0.5]), -0.5, 0.25)
    data = ClusteredDataset(
        cluster=np.zeros(4, dtype=np.int64),
        time=np.full(4, 5.0),
        event=np.zeros(4, dtype=np.int8),
        treat=np.array([0, 1, 0, 1], dtype=np.int8),
    )
    # survivor-only marginal: (1 + theta * sum H)^(-1/theta), summed over none dead
    H_total = 0.5 * 5.0 * (2.0 + 2.0 * math.exp(-0.5))
    want = -math.log1p(0.25 * H_total) / 0.25
    got = gamma_marginal_loglik(spec, params, data)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_lognormal_loglik_stable_in_node_count():
    sc = make_scenario("wei", "lognormal", 0.75, 1, 20)
    data = generate_dataset(sc, 2024)
    params = ModelParams(model_from_id("wei_lognormal"),
                         np.array([0.5, 0.8]), -0.5, 0.75)
    lls = []
    for nodes in (15, 63):
        spec = dataclasses.replace(model_from_id("wei_lognormal"), gh_nodes=nodes)
        lls.append(lognormal_marginal_loglik(spec, params, data))
    assert abs(lls[0] - lls[1]) <= 1e-6 * abs(lls[1])


@pytest.mark.parametrize("log_rate", [0.0, -800.0])
@pytest.mark.parametrize("log_var", [-700.0, 700.0])
def test_lognormal_loglik_is_a_float_at_extreme_points(log_var, log_rate):
    """Optimizer excursions to an extreme log variance, or to a rate at which
    every cumulative hazard underflows to 0, evaluate to a finite or -inf
    likelihood instead of raising."""
    data = generate_dataset(make_scenario("wei", "lognormal", 0.75, 4, 20), 7)
    spec = model_from_id("wei_lognormal")
    prep = fitting._prepare(spec, data)
    vec = np.array([log_rate, 0.0, -0.5, log_var])
    if log_rate < 0:
        assert not fitting._log_h_and_H(prep, vec)[1].any()
    ll, _ = fitting._loglik_core(prep, spec, vec)
    assert isinstance(ll, float)
    assert ll == -np.inf or np.isfinite(ll)


def test_lognormal_loglik_when_every_cumulative_hazard_underflows():
    """At log rate -800 every H underflows to 0, so each cluster integral is
    that of a Normal density times e^(eta*D): the log-likelihood is
    sum(log h) + sum_c var*D_c^2/2 exactly, although var*D = 800 puts the
    quadrature nodes where e^eta overflows."""
    data = ClusteredDataset(
        cluster=np.repeat(np.arange(3, dtype=np.int64), 2),
        time=np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        event=np.ones(6, dtype=np.int8),
        treat=np.array([0, 1, 0, 1, 0, 1], dtype=np.int8),
    )
    spec = model_from_id("exp_lognormal")
    prep = fitting._prepare(spec, data)
    var = 400.0
    ll, _ = fitting._loglik_core(prep, spec, np.array([-800.0, 0.0, math.log(var)]))
    want = 6 * -800.0 + 3 * var * 2**2 / 2
    assert abs(ll - want) <= 1e-12 * abs(want)


@functools.lru_cache(maxsize=None)
def _study_data(size):
    """Rep 0 of the misspecified ww2_mixturenormal_t075 cell."""
    sc = make_scenario("ww2", "mixturenormal", 0.75, *size)
    return generate_dataset(sc, derive_seed(20240901, sc.id, 0))


@functools.lru_cache(maxsize=None)
def _study_fit(model_id, size):
    """Model fitted to _study_data(size)."""
    spec = model_from_id(model_id)
    data = _study_data(size)
    return fitting._prepare(spec, data), spec, fit(spec, data)


def _three_starts(spec, prep):
    """fit's default start with the frailty variance set to 0.1, 0.5 and
    1.0: the other starts against which the one start is checked."""
    starts = []
    for var0 in (0.1, 0.5, 1.0):
        start = fitting._starting_point(spec, prep)
        start[-1] = np.log(var0)
        starts.append(start)
    return starts


@pytest.mark.parametrize("df", [3, 5, 9])
def test_rp_prepare_matches_triangular_solves(df):
    """_prepare solves Bd T^-1 by column substitution and inverts the QR
    factor T for the to_raw block; scipy's triangular solves, imported here
    only, give both to 1e-12 of their largest entry on the fit_all dataset,
    its rows sorted by (cluster, time, arm, event) as the fit sorts them."""
    from scipy.linalg import solve_triangular

    spec = model_from_id(f"rp{df}_gamma")
    data = _study_data((20, 150))
    prep = fitting._prepare(spec, data)
    order = np.lexsort((data.event, data.treat, data.time, data.cluster))
    logt = np.log(data.time[order])
    basis = place_knots(logt[np.asarray(data.event[order], dtype=bool)], df)
    B, Bd = basis_eval(basis, logt), basis_derivative(basis, logt)
    center = B.mean(axis=0)
    transform = np.linalg.qr(B - center)[1] / np.sqrt(B.shape[0])
    inverse = solve_triangular(transform, np.eye(df), lower=False)
    want_Bd = solve_triangular(transform, Bd.T, lower=False, trans="T")
    want_to_raw = np.eye(spec.n_params)
    want_to_raw[1:df + 1, 1:df + 1] = inverse
    want_to_raw[0, 1:df + 1] = -center @ inverse
    for got, want in ((prep.Bd, want_Bd), (prep.to_raw, want_to_raw)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())


def _cd_gradient(prep, spec, vec):
    """Central differences of the log-likelihood, step 1e-6 (1 + |x|)."""
    grad = np.empty_like(vec)
    for k in range(vec.size):
        step = np.zeros_like(vec)
        step[k] = 1e-6 * (1.0 + abs(vec[k]))
        up, _ = fitting._loglik_core(prep, spec, vec + step)
        down, _ = fitting._loglik_core(prep, spec, vec - step)
        grad[k] = (up - down) / (2.0 * step[k])
    return grad


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_score_matches_central_differences(model_id, size):
    prep, spec, res = _study_fit(model_id, size)
    start = np.linalg.solve(prep.to_raw, _three_starts(spec, prep)[1])
    for vec in (start, res.trans):
        ll, score = fitting._loglik_core(prep, spec, vec)
        assert np.isfinite(ll)
        cd = _cd_gradient(prep, spec, vec)
        assert np.max(np.abs(score - cd)) <= 1e-5 * max(1.0, np.max(np.abs(cd)))


def _column_stack_loglik(prep, spec, vec):
    """The log-likelihood and score with the design [1, B, x] built per call,
    row by row, as fit's objective once did."""
    nb = spec.n_baseline_params
    rows = prep.rows
    t, logt, x = rows.t, rows.logt, rows.x
    ones = np.ones_like(t)
    xb = x * vec[nb]
    if spec.baseline == "exp":
        log_h = vec[0] + xb
        H = np.exp(vec[0] + xb) * t
        dlog_H = dlog_h = np.column_stack((ones, x))
    elif spec.baseline == "wei":
        shape = np.exp(vec[1])
        log_h = vec[0] + vec[1] + (shape - 1.0) * logt + xb
        H = np.exp(vec[0] + shape * logt + xb)
        dlog_H = np.column_stack((ones, shape * logt, x))
        dlog_h = np.column_stack((ones, 1.0 + shape * logt, x))
    elif spec.baseline == "gom":
        log_h = vec[0] + vec[1] * t + xb
        H = np.exp(vec[0] + xb) * t * fitting._expm1_over(vec[1] * t)
        dlog_H = np.column_stack((ones, t * fitting._dlog_expm1_over(vec[1] * t), x))
        dlog_h = np.column_stack((ones, t, x))
    else:
        coef = vec[1:nb]
        sp = prep.Bd.T @ coef
        log_H = vec[0] + prep.B.T @ coef + xb
        log_h = np.log(sp) - logt + log_H
        H = np.exp(log_H)
        dlog_H = np.column_stack((ones, prep.B.T, x))
        dlog_h = dlog_H.copy()
        dlog_h[:, 1:nb] += prep.Bd.T / sp[:, None]
    V = np.bincount(rows.cluster, weights=H, minlength=rows.n_clusters)
    logs, g_V, g_u = fitting._cluster_terms(spec.frailty, rows.events_per_cluster,
                                            rows.d_range, V, np.exp(vec[-1]),
                                            gh_rule(spec.gh_nodes))
    score = np.append(dlog_h[rows.d].sum(axis=0) + (g_V[rows.cluster] * H) @ dlog_H, g_u.sum())
    dV = np.array([np.bincount(rows.cluster, weights=column * H, minlength=rows.n_clusters)
                   for column in dlog_H.T])
    return log_h[rows.d].sum() + logs.sum(), score, dV


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_loglik_on_the_prepared_design_matches_a_column_stack_reference(model_id, size,
                                                                        monkeypatch):
    """The design built once in _prepare, with its event-row sums, gives the
    log-likelihood of the per-call column_stack reference to 1e-12 relative
    and its score to 1e-10 of the largest entry, at three starts: the
    sums are taken in another order, so not bit for bit. (At the optimum
    the score is rounding, about 1e-12 of its terms, and only the
    log-likelihood is compared.) Each cluster-sum method of _Prepared,
    reduceat and bincount, is checked on both shapes, whichever the mean
    cluster size selects: its V enters the log-likelihood and score, and
    its dV matches the reference's per-column bincounts to 1e-12 of the
    largest entry."""
    _, spec, res = _study_fit(model_id, size)
    for reduceat_size in (0.0, np.inf):
        monkeypatch.setattr(fitting, "_REDUCEAT_SIZE", reduceat_size)
        prep = fitting._prepare(spec, _study_data(size))
        assert (prep.rows.starts is None) == (reduceat_size == np.inf)
        for raw in _three_starts(spec, prep):
            vec = np.linalg.solve(prep.to_raw, raw)
            ll, score = fitting._loglik_core(prep, spec, vec)
            want_ll, want_score, want_dV = _column_stack_loglik(prep, spec, vec)
            assert abs(ll - want_ll) <= 1e-12 * abs(want_ll)
            assert np.max(np.abs(score - want_score)) <= 1e-10 * np.max(np.abs(want_score))
            _, H, _, dlog_H = fitting._log_h_and_H(prep, vec)
            dV = prep.cluster_sums(dlog_H * H)
            assert np.max(np.abs(dV - want_dV)) <= 1e-12 * np.max(np.abs(want_dV))
        ll, _ = fitting._loglik_core(prep, spec, res.trans)
        want_ll, _, _ = _column_stack_loglik(prep, spec, res.trans)
        assert abs(ll - want_ll) <= 1e-12 * abs(want_ll)


def _shuffled(data, seed):
    """data with its rows permuted and its cluster codes relabelled, with
    codes left unused between them."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(data.n_subjects)
    codes = rng.permutation(3 * data.n_clusters)[:data.n_clusters]
    return ClusteredDataset(cluster=codes[data.cluster][rows], time=data.time[rows],
                            event=data.event[rows], treat=data.treat[rows])


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_fit_does_not_depend_on_row_order_or_cluster_codes(model_id, size):
    """_prepare sorts the rows by cluster and renumbers the clusters, so a
    fit to the rows in another order under other cluster codes, with gaps,
    keeps its flag, message and counts, its log-likelihood to 1e-12
    relative and its estimates and SEs to 1e-6 SE: only the order of the
    sums, and for rp the rounding of the basis QR, differ."""
    _, spec, ref = _study_fit(model_id, size)
    res = fit(spec, _shuffled(_study_data(size), 5))
    assert (res.converged, res.message, res.n_evaluations, res.n_iterations) == \
        (ref.converged, ref.message, ref.n_evaluations, ref.n_iterations)
    assert abs(res.loglik - ref.loglik) <= 1e-12 * abs(ref.loglik)
    se = ref.se_natural
    assert np.max(np.abs(res.params.natural_vector() - ref.params.natural_vector()) / se) <= 1e-6
    assert np.max(np.abs(res.se_natural - se) / se) <= 1e-6


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id,baseline", [("exp_gamma", [0.4]),
                                               ("wei_lognormal", [0.5, 0.8])])
def test_marginal_loglik_sorts_the_rows_by_cluster(model_id, baseline, size):
    """gamma_marginal_loglik and lognormal_marginal_loglik sort the rows by
    cluster, stably: on rows that interleave the clusters but keep each
    cluster's rows in order, under codes with gaps, they equal their values
    on the sorted rows bit for bit."""
    data = _study_data(size)
    spec = model_from_id(model_id)
    params = ModelParams(spec, np.array(baseline), -0.5, 0.75)
    # row j of data goes to the j-th position, in order, of a random
    # interleaving of the cluster codes
    labels = data.cluster[np.random.default_rng(3).permutation(data.n_subjects)]
    rows = np.empty(data.n_subjects, dtype=np.int64)
    rows[np.argsort(labels, kind="stable")] = np.arange(data.n_subjects)
    unsorted = ClusteredDataset(cluster=3 * data.cluster[rows] + 1, time=data.time[rows],
                                event=data.event[rows], treat=data.treat[rows])
    assert (np.diff(unsorted.cluster) < 0).any()
    loglik = (gamma_marginal_loglik if spec.frailty is FrailtyFamily.GAMMA
              else lognormal_marginal_loglik)
    assert loglik(spec, params, unsorted) == loglik(spec, params, data)


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
def test_fits_do_not_depend_on_the_row_order_within_clusters(size):
    """The rows are sorted by (cluster, time, arm, event) before anything
    is summed and before the rp basis is orthogonalized, so with the rows
    permuted, each keeping its cluster code, every one of the 12 fits is
    bit-identical: loglik, trans, SEs, flags and counts."""
    data = _study_data(size)
    rows = np.random.default_rng(11).permutation(data.n_subjects)
    permuted = ClusteredDataset(cluster=data.cluster[rows], time=data.time[rows],
                                event=data.event[rows], treat=data.treat[rows])
    for model_id in all_model_ids():
        _, spec, ref = _study_fit(model_id, size)
        _assert_bit_identical(fit(spec, permuted), ref)


def test_a_prepared_dataset_gives_the_fits_of_the_dataset_bit_for_bit():
    """fit on the PreparedDataset that the models of a dataset share equals
    fit on the ClusteredDataset itself, bit for bit, for all 12 models; the
    two frailty families of an rp df share its basis."""
    data = _study_data((20, 150))
    shared = fitting.prepare_dataset(data)
    for model_id in all_model_ids():
        _, spec, ref = _study_fit(model_id, (20, 150))
        res = fit(spec, shared)
        assert (res.converged, res.message, res.n_evaluations, res.n_iterations,
                res.n_obs) == (ref.converged, ref.message, ref.n_evaluations,
                               ref.n_iterations, ref.n_obs)
        assert res.loglik == ref.loglik
        for got, want in ((res.trans, ref.trans), (res.se_natural, ref.se_natural),
                          (res.cov_trans, ref.cov_trans), (res.to_raw, ref.to_raw)):
            assert got.tobytes() == want.tobytes()
    assert sorted(shared.splines) == [3, 5, 9]
    gamma, lognormal = (fitting._prepare(model_from_id(f"rp5_{family}"), shared)
                        for family in ("gamma", "lognormal"))
    assert gamma.B is lognormal.B and gamma.to_raw is lognormal.to_raw


def _assert_bit_identical(res, ref):
    assert (res.converged, res.message, res.n_evaluations, res.n_iterations) == \
        (ref.converged, ref.message, ref.n_evaluations, ref.n_iterations)
    assert res.loglik == ref.loglik
    assert res.trans.tobytes() == ref.trans.tobytes()
    assert res.se_natural.tobytes() == ref.se_natural.tobytes()


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
def test_fits_do_not_depend_on_the_other_models_or_their_order(size):
    """Every model but exp_gamma starts from the dataset's anchor, which
    depends on the dataset alone: the 12 fits on one PreparedDataset in
    reversed order are bit-identical to those in all_model_ids() order,
    and to each model fitted alone to a fresh dataset (_study_fit)."""
    forward, backward = (fitting.prepare_dataset(_study_data(size)) for _ in range(2))
    ids = all_model_ids()
    in_order = {model_id: fit(model_from_id(model_id), forward) for model_id in ids}
    reversed_order = {model_id: fit(model_from_id(model_id), backward)
                      for model_id in reversed(ids)}
    for model_id in ids:
        alone = _study_fit(model_id, size)[2]
        _assert_bit_identical(reversed_order[model_id], in_order[model_id])
        _assert_bit_identical(in_order[model_id], alone)


@pytest.mark.parametrize("model_id", ["wei_gamma", "gom_gamma", "rp3_gamma", "rp5_gamma",
                                      "rp9_gamma"])
def test_the_anchored_start_nests_the_anchor_exactly(model_id):
    """wei (log shape 0), gom (gamma 0) and rp (slope 1 on log t, the other
    spline terms 0) nest the exponential, so at the start mapped from the
    anchor their loglik is the anchor's to 1e-12 relative; for rp this
    checks the start's passage through to_raw. The anchor's frailty
    variance, 2.8, is above the start's floor of 0.1 here. The log-Normal
    sibling starts at the same point but for its log rate, lowered by half
    the frailty variance so that the frailty's mean e^(var/2) is taken out."""
    data = fitting.prepare_dataset(_study_data((20, 150)))
    anchor = fitting._anchor(data)
    assert anchor.converged and anchor.frailty_var_hat > 0.1
    spec = model_from_id(model_id)
    prep = fitting._prepare(spec, data)
    start = fitting._anchored_start(spec, prep)
    ll = fitting._loglik_core(prep, spec, np.linalg.solve(prep.to_raw, start))[0]
    assert abs(ll - anchor.loglik) <= 1e-12 * abs(anchor.loglik)
    sibling = dataclasses.replace(spec, frailty=FrailtyFamily.LOG_NORMAL)
    shifted = fitting._anchored_start(sibling, fitting._prepare(sibling, data))
    assert shifted[1:].tobytes() == start[1:].tobytes()
    assert shifted[0] == start[0] - 0.5 * anchor.frailty_var_hat


@pytest.mark.parametrize("truth", ["gamma", "lognormal"])
def test_fits_from_an_anchor_on_the_variance_boundary_reach_the_cold_start_optimum(truth):
    """On rep 0 of ww1_{truth}_t025_750x2 (seed 20240901) the anchor's
    frailty variance is about 1e-11. The start's variance is floored at
    0.1, so every model converges to the optimum of its fit from
    _starting_point, within 1e-4 SE; without the floor, the 10 models
    other than exp_gamma and exp_lognormal end non-converged at a lower
    loglik."""
    sc = make_scenario("ww1", truth, 0.25, 750, 2)
    data = fitting.prepare_dataset(generate_dataset(sc, derive_seed(20240901, sc.id, 0)))
    assert fitting._anchor(data).frailty_var_hat < 1e-9
    for model_id in all_model_ids():
        spec = model_from_id(model_id)
        res = fit(spec, data)
        cold = fit(spec, data, start=fitting._starting_point(spec, fitting._prepare(spec, data)))
        assert res.converged and cold.converged
        assert np.max(np.abs(res.trans - cold.trans) / cold.se_trans) <= 1e-4


def test_a_log_normal_fit_starts_at_a_variance_of_at_most_ten():
    """On rep 14 of ww2_gamma_t50_20x150 (seed 20240901) the anchor's Gamma
    variance is about 230. The log-Normal start's variance is capped at 10,
    before its log rate is lowered by half of it, so rp5_lognormal converges
    to the optimum of its fit from _starting_point, within 1e-4 SE
    (measured 2.1e-7); from a start at variance 230 it ends non-converged
    at variance 2,804, at a loglik 0.47 below that optimum."""
    sc = make_scenario("ww2", "gamma", 50, 20, 150)
    data = fitting.prepare_dataset(generate_dataset(sc, derive_seed(20240901, sc.id, 14)))
    anchor = fitting._anchor(data)
    assert anchor.converged and anchor.frailty_var_hat > 200.0
    spec = model_from_id("rp5_lognormal")
    prep = fitting._prepare(spec, data)
    start = fitting._anchored_start(spec, prep)
    assert start[-1] == math.log(10.0)
    assert start[0] == anchor.trans_raw[0] - 0.5 * math.exp(math.log(10.0))
    res = fit(spec, data)
    cold = fit(spec, data, start=fitting._starting_point(spec, prep))
    assert res.converged and cold.converged
    assert np.max(np.abs(res.trans - cold.trans) / cold.se_trans) <= 1e-4


def test_a_dataset_whose_anchor_did_not_converge_starts_every_model_cold():
    """exp_gamma at another max_iter runs from _starting_point without the
    anchor; with an anchor that did not converge, every other model takes
    _starting_point too, and fits as it does from that start, bit for bit."""
    data = fitting.prepare_dataset(_study_data((20, 150)))
    stopped = fit(model_from_id("exp_gamma"), data, max_iter=0)
    assert data.anchor is None and not stopped.converged
    data.anchor = stopped
    for model_id in ("wei_gamma", "rp5_lognormal"):
        spec = model_from_id(model_id)
        cold = fitting._starting_point(spec, fitting._prepare(spec, data))
        assert fitting._anchored_start(spec, fitting._prepare(spec, data)).tobytes() == \
            cold.tobytes()
        _assert_bit_identical(fit(spec, data), fit(spec, _study_data((20, 150)), start=cold))


def test_exp_gamma_at_any_node_count_is_the_anchor(monkeypatch):
    """The node count does not enter a Gamma fit, so exp_gamma at another
    node count is the dataset's anchor under its own spec, with no run."""
    data = _anchored_data((20, 150))
    runs = _record_runs(monkeypatch)
    spec = ModelSpec("exp", FrailtyFamily.GAMMA, gh_nodes=21)
    res = fit(spec, data)
    assert runs == [] and res.spec == res.params.spec == spec
    _assert_bit_identical(res, data.anchor)


def _kernel(D, V, var, rule, mean, order):
    with np.errstate(divide="ignore"):
        return np.array(fitting._lognormal_clusters(D, V, var, rule, mean, order))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("mean", [0.0, 1.3])
def test_lognormal_kernel_in_blocks_equals_the_whole_batch_bit_for_bit(mean, order,
                                                                       monkeypatch):
    """_lognormal_clusters runs its quadrature in column blocks, in work
    arrays that each thread keeps. On 3.3 blocks of clusters, with V = 0 at
    and next to the block edges, every output at every order and log-mean
    equals that of one block over the whole batch in fresh work arrays, and
    a second call in a row returns the same values, so the kept arrays
    carry nothing from one call to the next."""
    rule = gh_rule(15)
    block = fitting._BLOCK_ELEMENTS // rule.n
    n = 3 * block + block // 3
    rng = np.random.default_rng(order)
    D = rng.integers(0, 6, n).astype(float)
    V = rng.uniform(0.0, 3.0, n)
    V[[0, block - 1, block, 2 * block + 1, n - 1]] = 0.0
    got = _kernel(D, V, 0.75, rule, mean, order)
    assert got.shape == ((1, 3, 6)[order], n) and np.isfinite(got).all()
    assert np.array_equal(_kernel(D, V, 0.75, rule, mean, order), got)
    monkeypatch.setattr(fitting, "_BLOCK_ELEMENTS", rule.n * n)
    monkeypatch.setattr(fitting, "_work", threading.local())
    assert np.array_equal(_kernel(D, V, 0.75, rule, mean, order), got)


@pytest.mark.parametrize("mean", [-1.5, 0.7, 2.0])
def test_lognormal_kernel_log_mean_is_a_shift_of_the_frailty(mean):
    """At D = 0 the kernel at log-mean mu is log E[exp(-e^(mu + sigma Z) V)]:
    at 63 nodes it, and the kernel at log-mean 0 and V e^mu, agree with the
    tanh-sinh oracle to 1e-12 for V from 1e-6 to 50. At D > 0 the shift
    adds mu D to the terms and scales each V derivative by e^mu: every
    output at order 2 equals that at log-mean 0 and V e^mu to 1e-10
    relative."""
    var = 0.75
    sd = math.sqrt(var)
    rule = gh_rule(63)
    V = np.logspace(-6.0, math.log10(50.0), 9)
    shifted = np.exp(_kernel(0.0, V, var, rule, mean, 0)[0])
    scaled = np.exp(_kernel(0.0, V * math.exp(mean), var, rule, 0.0, 0)[0])
    for k in range(V.size):
        def integrand(eta, k=k):
            z = (eta - mean) / sd
            return np.exp(-0.5 * z * z - np.exp(eta) * V[k]) / (sd * math.sqrt(2.0 * math.pi))

        peak = float(lognormal_laplace(0.0, V[k], mean, var)[0])
        want = (tanh_sinh(integrand, mean - 12.0 * sd, peak, tol=1e-14)
                + tanh_sinh(integrand, peak, mean + 12.0 * sd, tol=1e-14))
        assert abs(shifted[k] - want) <= 1e-12 and abs(scaled[k] - want) <= 1e-12
    D = np.array([0.0, 1.0, 3.0, 0.0, 2.0, 5.0])
    V = np.array([0.3, 1.0, 2.5, 0.0, 40.0, 0.01])
    got = _kernel(D, V, var, gh_rule(15), mean, 2)
    base = _kernel(D, V * math.exp(mean), var, gh_rule(15), 0.0, 2)
    e = math.exp(mean)
    for g, w in zip(got, (base[0] + mean * D, e * base[1], base[2], e * e * base[3],
                          e * base[4], base[5])):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12 * np.max(np.abs(w)))


@pytest.mark.parametrize("model_id", ["wei_lognormal", "rp5_lognormal"])
def test_lle_gradient_matches_central_differences_of_the_lle(model_id):
    """The LLE's gradient, from the kernel's first derivatives on the grid,
    matches central differences of the LLE that the same pass gives, step
    1e-5 (1 + |x|), to 1e-6 of its largest entry."""
    _, _, res = _study_fit(model_id, (20, 150))
    functional = lle_functional(res, 5.0)
    _, grad = functional(res.trans)
    cd = np.empty_like(res.trans)
    for k in range(cd.size):
        step = np.zeros_like(res.trans)
        step[k] = 1e-5 * (1.0 + abs(res.trans[k]))
        up, down = functional(res.trans + step)[0], functional(res.trans - step)[0]
        cd[k] = (up - down) / (2.0 * step[k])
    assert np.max(np.abs(grad - cd)) <= 1e-6 * np.max(np.abs(cd))


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_lle_and_its_gradient_match_the_marginal_model_path(model_id, size):
    """One pass over the time rule's nodes with the likelihood's cluster
    kernels gives the LLE of the oracle marginal_model on the same nodes
    (rule_lle, split at the oracle's knot times), and its gradient matches
    central differences of that independent path, step 1e-5 (1 + |x|)."""
    _, _, res = _study_fit(model_id, size)
    horizon = 5.0

    def reference(vec):
        return rule_lle(params_from_trans(res, vec), horizon)

    want = reference(res.trans)
    value, grad = lle_functional(res, horizon)(res.trans)
    assert abs(value - want) <= 1e-12 * (1.0 + abs(want))
    cd = np.empty_like(res.trans)
    for k in range(cd.size):
        step = np.zeros_like(res.trans)
        step[k] = 1e-5 * (1.0 + abs(res.trans[k]))
        cd[k] = (reference(res.trans + step) - reference(res.trans - step)) / (2.0 * step[k])
    assert np.max(np.abs(grad - cd)) <= 1e-6 * np.max(np.abs(cd))


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_lle_matches_tanh_sinh_split_at_the_knots(model_id, size):
    """The fitted LLE equals the oracle marginal_model's LLE by tanh-sinh,
    split at the knot times of an rp fit, to 1e-10 (measured at most
    2.3e-13), at horizons 0.5 (before the last interior knot of the rp9
    fits), 2.5, 5 and 10 (past the upper boundary knot, 4.96)."""
    _, _, res = _study_fit(model_id, size)
    model = marginal_model(res.params)
    for horizon in (0.5, 2.5, 5.0, 10.0):
        value = lle_functional(res, horizon)(res.trans)[0]
        assert abs(value - tanh_sinh_lle(model, horizon, knot_times(res.params.basis))) <= 1e-10


@pytest.mark.parametrize("model_id", ["wei_lognormal", "rp5_lognormal"])
def test_misspecified_lognormal_fit_converges_at_a_stationary_point(model_id):
    """The convergence flag is checked against an independent gradient, not
    only against the score the optimizer used."""
    prep, spec, res = _study_fit(model_id, (750, 2))
    assert res.converged
    cd = _cd_gradient(prep, spec, res.trans)
    assert np.max(np.abs(cd)) <= 1e-5 * (1.0 + abs(res.loglik))


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
def test_the_covariance_inverts_the_information_at_the_fit(size):
    """cov_trans comes from the Cholesky factor that the run carried to its
    last iterate, so it inverts the information there, computed afresh,
    to 1e-10; a factor left over from an earlier iterate would not."""
    for model_id in all_model_ids():
        prep, spec, res = _study_fit(model_id, size)
        product = res.cov_trans @ _information(prep, spec, res.trans)
        assert np.abs(product - np.eye(spec.n_params)).max() <= 1e-10, model_id


def test_every_model_fits_a_dataset_whose_information_lu_finds_singular():
    """On rep 8 of ww2_mixturenormal_t50_20x150 (seed 20240901) the exp_gamma
    fit, which every other model starts from, reaches an information that
    has a Cholesky factor but that an LU solve calls singular. The step
    comes from that one factor, so every model returns a fit."""
    sc = make_scenario("ww2", "mixturenormal", 50, 20, 150)
    data = fitting.prepare_dataset(generate_dataset(sc, derive_seed(20240901, sc.id, 8)))
    results = [fit(model_from_id(model_id), data) for model_id in all_model_ids()]
    assert [res.spec.id for res in results] == all_model_ids()


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
def test_study_fits_stop_at_the_newton_decrement(size):
    """Every study fit ends on the decrement rule, which is what converged
    means: at its optimum g'H^-1 g, with g the score and H the information,
    is at most 1e-12 (1 + |loglik|)."""
    for model_id in all_model_ids():
        prep, spec, res = _study_fit(model_id, size)
        assert res.converged and res.message == fitting._DECREMENT_STOP
        ll, score, info = fitting._loglik_core(prep, spec, res.trans, information=True)
        assert score @ np.linalg.solve(info, score) <= fitting._DECREMENT * (1.0 + abs(ll))


_HESS_STEP = 1e-4


def _information(prep, spec, vec):
    """The observed information of the fused pass."""
    return fitting._loglik_core(prep, spec, vec, information=True)[2]


def _score_hessian(prep, spec, vec, step=_HESS_STEP):
    """Hessian of the negated log-likelihood by central differences of the
    score, step step (1 + |x|): 2k score evaluations. Non-finite where a
    neighbour is infeasible. An oracle for the information of
    fitting._loglik_core that shares none of its second derivatives."""
    steps = step * (1.0 + np.abs(vec))
    hess = np.empty((vec.size, vec.size))
    for k, h in enumerate(steps):
        e_k = np.zeros_like(vec)
        e_k[k] = h
        hess[k] = (fitting._loglik_core(prep, spec, vec - e_k)[1]
                   - fitting._loglik_core(prep, spec, vec + e_k)[1]) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def _richardson_hessian(prep, spec, vec):
    """(4 D(h/2) - D(h)) / 3 for _score_hessian D at step h = 1e-4 (1 + |x|):
    its O(h^2) error cancels, which the plain difference leaves at up to
    about 1e-6 of the largest entry on rp9."""
    return (4.0 * _score_hessian(prep, spec, vec, _HESS_STEP / 2)
            - _score_hessian(prep, spec, vec)) / 3.0


# weights of the score at offsets +-1, ..., +-4 steps in the eighth-order
# central difference
_STENCIL8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


def _stencil8_hessian(prep, spec, vec, step=1e-2):
    """Hessian of the negated log-likelihood by eighth-order central
    differences of the score, step step (1 + |x|): 8k score evaluations.
    Its truncation error is O(step^8), so it takes a step 100 times
    _HESS_STEP's and divides the score's rounding noise by as much. Shares
    no second derivative with the information of fitting._loglik_core."""
    steps = step * (1.0 + np.abs(vec))
    hess = np.empty((vec.size, vec.size))
    for k, h in enumerate(steps):
        e_k = np.zeros_like(vec)
        e_k[k] = h
        hess[k] = -sum(
            c * (fitting._loglik_core(prep, spec, vec + j * e_k)[1]
                 - fitting._loglik_core(prep, spec, vec - j * e_k)[1])
            for j, c in enumerate(_STENCIL8, start=1)) / h
    return 0.5 * (hess + hess.T)


def _information_points(model_id, size):
    """The fit's optimum, and for Gamma frailty the same point at frailty
    variance 1e-4 and 5."""
    prep, spec, res = _study_fit(model_id, size)
    points = [res.trans]
    if spec.frailty is FrailtyFamily.GAMMA:
        for var in (1e-4, 5.0):
            points.append(np.append(res.trans[:-1], math.log(var)))
    return prep, spec, points


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_observed_information_matches_richardson_differences_of_the_score(model_id, size):
    """The chain-rule information of the fused pass agrees with the
    extrapolated central differences of the analytic score to 1e-6 of the
    largest entry. Measured: below 2e-10 for Gamma frailty and below 2e-9
    for log-Normal, whose cluster curvatures are both closed."""
    prep, spec, points = _information_points(model_id, size)
    for vec in points:
        info = _information(prep, spec, vec)
        want = _richardson_hessian(prep, spec, vec)
        assert np.max(np.abs(info - want)) <= 1e-6 * np.max(np.abs(want))


def test_log1p_gap_keeps_its_relative_precision():
    """1/(1 + x) - log1p(x)/x, the O(var) part of the Gamma g_u and g_uu,
    to 1e-13 relative of a 50-digit reference, also where its terms cancel."""
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    x = np.array([1e-14, 1e-9, 1e-6, 1e-3, 0.0099, 0.01, 0.3, 5.0, 1e8])
    want = [float(1 / (1 + Decimal(v)) - (1 + Decimal(v)).ln() / Decimal(v)) for v in x]
    np.testing.assert_allclose(fitting._log1p_gap(x), want, rtol=1e-13, atol=0.0)
    assert fitting._log1p_gap(np.zeros(1))[0] == 0.0


def _richardson(f, h):
    """(4 D(h/2) - D(h)) / 3 for the central difference D(h) of f(e) at e = 0."""
    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize("var", [1e-3, 0.3, 3.0, 10.0])
@pytest.mark.parametrize("V_scale", [0.01, 1.0, 50.0])
def test_lognormal_cluster_curvature_matches_richardson_differences(var, V_scale):
    """The closed-form g_VV, g_Vu and g_uu of the log-Normal cluster terms
    agree with Richardson-extrapolated central differences of their g_V and
    g_u, step 1e-3 in log V and in u = log var, to 1e-6 of each array's
    largest entry (measured: below 4e-8); g_Vu is checked as the
    derivative of g_V in u and of g_u in V. A last cluster has V = 0, where
    the V differences are one-sided: (2 D(h/2) - D(h)) for the forward
    difference D(h), at a step of 1e-5 on the scale over which g_V changes,
    to 1e-5 of the entry (measured: below 2e-6)."""
    rule = gh_rule(15)
    D = np.array([0.0, 1.0, 2.0, 5.0, 0.0, 3.0, 2.0])
    V = V_scale * np.array([0.5, 1.0, 2.0, 0.7, 1.3, 0.9, 0.0])

    def terms(V, var):
        with np.errstate(divide="ignore"):
            return fitting._lognormal_clusters(D, V, var, rule, order=2)

    _, g_V, g_u, g_VV, g_Vu, g_uu = terms(V, var)
    live = V > 0
    # differences in log V, over V
    by_V = (_richardson(lambda e: np.array(terms(V * np.exp(e), var)[1:3]), 1e-3)
            / np.where(live, V, 1.0))
    by_u = _richardson(lambda e: np.array(terms(V, var * np.exp(e))[1:3]), 1e-3)
    for got, want in ((g_VV, by_V[0]), (g_Vu, by_V[1]), (g_Vu, by_u[0]), (g_uu, by_u[1])):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)[live]) <= 1e-6 * np.max(np.abs(want[live]))
    np.testing.assert_allclose((g_Vu[-1], g_uu[-1]), (by_u[0][-1], by_u[1][-1]),
                               rtol=1e-6, atol=1e-6 * np.max(np.abs(by_u)))
    # g_V changes on the scale 1/E[e^eta]: at V = 0 the posterior of eta
    # is N(var*D, var), and over that scale g_V moves by about e^(-var)
    h = 1e-5 * np.exp(-var * (D[-1] + 1.5))

    def forward(step):
        shifted = terms(np.where(live, V, step), var)[1:3]
        return [(s[-1] - b[-1]) / step for s, b in zip(shifted, (g_V, g_u))]

    for got, small, large in zip((g_VV[-1], g_Vu[-1]), forward(h / 2.0), forward(h)):
        assert abs(got - (2.0 * small - large)) <= 1e-5 * abs(got)


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_fit_standard_errors_match_the_score_difference_hessian(model_id, size):
    """The SEs on the optimizer scale are within 1e-5 SE of those from the
    central-difference Hessian of the score."""
    prep, spec, res = _study_fit(model_id, size)
    old = np.sqrt(np.diag(np.linalg.inv(_score_hessian(prep, spec, res.trans))))
    assert np.max(np.abs(res.se_trans - old) / old) <= 1e-5


@pytest.mark.parametrize("frailty", ["gamma", "lognormal"])
@pytest.mark.parametrize("model_id", ["exp_gamma", "exp_lognormal"])
def test_boundary_fits_keep_their_standard_errors(model_id, frailty):
    """Fits whose frailty variance runs toward 0 (estimates 1.4e-11 to
    3.6e-11) stay converged with a positive-definite information, and their
    beta and log-variance SEs agree with the eighth-order difference
    Hessian's to 1e-5 relative, although there the log-variance entry of the
    information is about 1e-9. Both keep that precision because the cluster
    terms' g_u and g_uu are computed as sums of O(var) terms, not as
    differences of O(1) ones, which put up to 4.3e-5 between the two SEs.
    The oracle's SEs move by at most 3.8e-6 relative across steps 8e-3 to
    1.5e-2."""
    sc = make_scenario("ww1", frailty, 0.25, 750, 2)
    data = generate_dataset(sc, derive_seed(20240901, sc.id, 0))
    spec = model_from_id(model_id)
    res = fit(spec, data)
    assert res.converged and res.cov_trans is not None
    assert res.frailty_var_hat < 1e-4
    prep = fitting._prepare(spec, data)
    old = np.sqrt(np.diag(np.linalg.inv(_stencil8_hessian(prep, spec, res.trans))))
    for i in (res.beta_index, -1):
        assert abs(res.se_trans[i] - old[i]) <= 1e-5 * old[i]


@pytest.mark.parametrize("model_id", ["exp_gamma", "exp_lognormal"])
def test_a_cluster_whose_cumulative_hazard_underflowed_adds_no_information(model_id):
    """A censored cluster with V = 0 has dV = 0: the information is that of
    the data without it, not NaN."""
    data = _study_data((20, 150))
    tiny = ClusteredDataset(
        cluster=np.append(data.cluster, data.cluster.max() + 1),
        time=np.append(data.time, 1e-320),
        event=np.append(data.event, 0),
        treat=np.append(data.treat, 0),
    )
    spec = model_from_id(model_id)
    prep = fitting._prepare(spec, tiny)
    vec = _study_fit(model_id, (20, 150))[2].trans - [20.0, 0.0, 0.0]
    assert fitting._log_h_and_H(prep, vec)[1][-1] == 0.0
    info = _information(prep, spec, vec)
    want = _information(fitting._prepare(spec, data), spec, vec)
    np.testing.assert_allclose(info, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_observed_information_is_nan_at_an_infeasible_point():
    """A nonpositive spline slope at an event makes the log-likelihood -inf,
    with an all-NaN score and information; the optimizer rejects the point."""
    prep, spec, res = _study_fit("rp3_gamma", (20, 150))
    vec = res.trans.copy()
    vec[1:spec.n_baseline_params] *= -1.0
    ll, score, info = fitting._loglik_core(prep, spec, vec, information=True)
    assert ll == -np.inf
    assert np.isnan(score).all() and np.isnan(info).all()


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_newton_steps_from_the_fit_gain_nothing(model_id, size):
    """Independent of the fit's own information: Newton steps on the
    central-difference Hessian of the score barely raise the log-likelihood
    or move the estimates."""
    prep, spec, res = _study_fit(model_id, size)
    vec = res.trans.copy()
    for _ in range(3):
        _, score = fitting._loglik_core(prep, spec, vec)
        vec = vec + np.linalg.solve(_score_hessian(prep, spec, vec), score)
    ll, _ = fitting._loglik_core(prep, spec, vec)
    assert ll - res.loglik <= 1e-9 * (1.0 + abs(res.loglik))
    assert np.max(np.abs(vec - res.trans) / res.se_trans) <= 1e-3


@pytest.mark.parametrize("size,bound", [((20, 150), 145), ((750, 2), 190)],
                         ids=["20x150", "750x2"])
def test_study_fits_run_one_start(size, bound):
    """The 12 fits take about 10% fewer evaluations than the bound (130
    at 20x150, 170 at 750x2)."""
    assert sum(_study_fit(m, size)[2].n_evaluations for m in all_model_ids()) <= bound


def _assert_same_optimum(res, ref):
    assert abs(res.loglik - ref.loglik) <= 1e-9 * (1.0 + abs(ref.loglik))
    est = np.abs(res.params.natural_vector() - ref.params.natural_vector())
    assert np.max(est / ref.se_natural) <= 1e-3
    assert np.max(np.abs(res.se_natural - ref.se_natural) / ref.se_natural) <= 1e-3


@functools.lru_cache(maxsize=None)
def _best_of_three_starts(model_id, size):
    """The best by loglik of single-start fits from each of _three_starts."""
    prep, spec, res = _study_fit(model_id, size)
    fits = [fit(spec, _study_data(size), start=x0)
            for x0 in _three_starts(spec, prep)]
    return max(fits, key=lambda r: r.loglik)


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_one_start_fit_matches_the_best_of_three_starts(model_id, size):
    _assert_same_optimum(_study_fit(model_id, size)[2], _best_of_three_starts(model_id, size))


def _record_runs(monkeypatch):
    """Record the _Run of each _newton call."""
    runs = []
    newton = fitting._newton

    def recording_newton(*args, **kwargs):
        runs.append(newton(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(fitting, "_newton", recording_newton)
    return runs


def _anchored_data(size):
    """A fresh PreparedDataset of _study_data(size) whose anchor is already
    fitted, so that a fit on it makes only its own run."""
    data = fitting.prepare_dataset(_study_data(size))
    fitting._anchor(data)
    return data


def test_a_fit_is_one_newton_run(monkeypatch):
    """A fit that does not converge makes no further run: its message and
    counts are those of its one _newton run."""
    data = _anchored_data((20, 150))
    runs = _record_runs(monkeypatch)
    res = fit(model_from_id("wei_lognormal"), data, max_iter=1)
    assert len(runs) == 1 and not runs[0].converged
    assert not res.converged
    assert res.message == runs[0].message == "max_iter (1) steps taken"
    assert res.n_evaluations == runs[0].nfev
    assert res.n_iterations == runs[0].nit == 1


@pytest.mark.parametrize("model_id", ["wei_lognormal", "rp5_gamma"])
def test_a_warm_start_from_a_stopped_fit_reaches_the_optimum(model_id):
    """A fit stopped before its first step does not converge and reports
    that; a refit from its trans_raw, the warm start that bootstrap refits
    use, converges to the optimum of the default fit."""
    size = (20, 150)
    _, spec, ref = _study_fit(model_id, size)
    stopped = fit(spec, _study_data(size), max_iter=0)
    assert not stopped.converged
    assert stopped.message == "max_iter (0) steps taken"
    assert (stopped.n_evaluations, stopped.n_iterations) == (1, 0)
    res = fit(spec, _study_data(size), start=stopped.trans_raw)
    assert res.converged
    _assert_same_optimum(res, ref)


def test_the_default_start_is_a_frailty_variance_of_one_tenth():
    """exp_gamma without a start, the dataset's anchor, is fit from
    _starting_point: the crude event rate, no treatment effect and a
    frailty variance of 0.1, bit for bit."""
    prep, spec, res = _study_fit("exp_gamma", (20, 150))
    start = fitting._starting_point(spec, prep)
    assert start[0] == np.log(prep.rows.d.sum() / prep.rows.t.sum())
    assert start[-2:].tolist() == [0.0, np.log(0.1)]
    warm = fit(spec, _study_data((20, 150)), start=start)
    assert warm.trans.tobytes() == res.trans.tobytes()
    assert (warm.loglik, warm.message, warm.n_evaluations) == \
        (res.loglik, res.message, res.n_evaluations)


def test_a_dataset_whose_first_bfgs_start_failed_converges_from_one_start(tmp_path):
    """wei_gamma on a ww2_mixturenormal_t075_20x150 dataset read back from
    CSV, found among 7,200 fits (the fit_all datasets of the benchmark's
    master seeds for --seed 501, passes 0-599): BFGS's first start ended on
    a failed line search with a score of 5.3e-5, above the convergence
    test's 3.4e-5, and the fallback starts ran. Newton converges from the
    first start to the optimum that BFGS's second start reached."""
    sc = make_scenario("ww2", "mixturenormal", 0.75, 20, 150)
    path = tmp_path / "data.csv"
    write_dataset_csv(generate_dataset(sc, derive_seed(1934102973, sc.id, 0)), path)
    res = fit(model_from_id("wei_gamma"), read_dataset_csv(path))
    assert res.message == fitting._DECREMENT_STOP
    assert res.converged
    assert res.grad_inf_norm <= 1e-5 * (1.0 + abs(res.loglik))


@pytest.mark.parametrize("model_id", all_model_ids())
def test_warm_start_at_the_optimum_stops_at_once(model_id):
    """A start whose first point meets the decrement rule ends there."""
    _, spec, res = _study_fit(model_id, (20, 150))
    warm = fit(spec, _study_data((20, 150)), start=res.trans_raw)
    assert (warm.n_evaluations, warm.n_iterations) == (1, 0)
    assert warm.message == fitting._DECREMENT_STOP
    _assert_same_optimum(warm, res)


def test_fit_checks_start_shape_first():
    with pytest.raises(ValueError, match="start must have 8 entries"):
        fit(model_from_id("rp5_gamma"), _study_data((20, 150)), start=np.zeros(4))


def test_fit_message_names_each_start_stop_reason(monkeypatch):
    """The run's reason to stop is FitResult.message."""
    data = _anchored_data((20, 150))
    runs = _record_runs(monkeypatch)
    for model_id in ("rp5_gamma", "wei_lognormal"):
        runs.clear()
        res = fit(model_from_id(model_id), data)
        assert len(runs) == 1
        assert res.message == runs[0].message == fitting._DECREMENT_STOP


@pytest.mark.parametrize("size", [(20, 150), (750, 2)], ids=["20x150", "750x2"])
@pytest.mark.parametrize("model_id", all_model_ids())
def test_fit_matches_scipy_bfgs(model_id, size):
    """An independent oracle for the optimizer: scipy's BFGS, run to its own
    gradient tolerance from fit's first start on the negated log-likelihood
    and its score, reaches the fit's optimum: the same loglik to 1e-9
    relative, estimates within 1e-3 SE, and the information there gives SEs
    within 1e-3 relative. An infeasible point gets a large value and a zero
    gradient, which sends scipy's line search back."""
    from scipy.optimize import minimize

    prep, spec, res = _study_fit(model_id, size)

    def objective(vec):
        ll, score = fitting._loglik_core(prep, spec, vec)
        if np.isfinite(ll) and np.isfinite(score).all():
            return -ll, -score
        return 1e10, np.zeros_like(vec)

    x0 = np.linalg.solve(prep.to_raw, fitting._starting_point(spec, prep))
    ref = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": 1e-7})
    ref_ll = -ref.fun
    assert abs(res.loglik - ref_ll) <= 1e-9 * (1.0 + abs(ref_ll))
    assert np.max(np.abs(res.trans - ref.x) / res.se_trans) <= 1e-3
    ref_se = np.sqrt(np.diag(np.linalg.inv(_information(prep, spec, ref.x))))
    assert np.max(np.abs(res.se_trans - ref_se) / ref_se) <= 1e-3


def _rosenbrock(x):
    a, b = x
    f = 100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2
    g = np.array([-400.0 * a * (b - a * a) - 2.0 * (1.0 - a), 200.0 * (b - a * a)])
    hess = np.array([[1200.0 * a * a - 400.0 * b + 2.0, -400.0 * a], [-400.0 * a, 200.0]])
    return f, g, hess


def _quadratic():
    """f = x'Ax/2 - b'x with A positive definite, condition number 100, and
    its minimizer."""
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))
    a = q @ np.diag(np.geomspace(1.0, 100.0, 5)) @ q.T
    b = np.arange(1.0, 6.0)
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b, a)), np.linalg.solve(a, b)


@pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
def test_newton_reaches_the_minimizer(problem):
    """The run ends on the decrement rule at the minimizer, and every step
    it takes lowers the objective; nfev counts the objective's calls and nit
    the steps taken. On the quadratic the first, pure Newton, step lands on
    the minimizer."""
    if problem == "quadratic":
        fun, want = _quadratic()
        x0 = np.zeros(5)
    else:
        fun, want = _rosenbrock, np.ones(2)
        x0 = np.array([-1.2, 1.0])
    calls = []

    def counted(x):
        calls.append((x.copy(), fun(x)[0]))
        return fun(x)

    run = fitting._newton(counted, x0, max_iter=500)
    assert run.message == fitting._DECREMENT_STOP and run.converged
    np.testing.assert_allclose(run.x, want, atol=1e-6)
    assert run.nfev == len(calls)
    # the iterates are the calls that lowered the best objective so far
    best, steps = calls[0][1], 0
    for _, f in calls[1:]:
        if f < best:
            best, steps = f, steps + 1
    assert run.nit == steps and run.fun == best
    if problem == "quadratic":
        assert (run.nit, run.nfev) == (1, 2)


def test_newton_from_an_indefinite_hessian_reaches_a_minimizer():
    """f = x^4/4 - x^2/2 + y^2/2 has a Hessian diag(3x^2 - 1, 1), indefinite
    at the start (0.1, 1): the shifted steps go downhill to the minimizer
    (1, 0)."""
    def fun(v):
        x, y = v
        return (x**4 / 4.0 - x * x / 2.0 + y * y / 2.0, np.array([x**3 - x, y]),
                np.diag([3.0 * x * x - 1.0, 1.0]))

    run = fitting._newton(fun, np.array([0.1, 1.0]), max_iter=100)
    assert run.message == fitting._DECREMENT_STOP and run.converged
    np.testing.assert_allclose(run.x, [1.0, 0.0], atol=1e-6)


def test_an_infeasible_trial_is_rejected_and_the_shift_grows():
    """(x - 3)^2 is infeasible beyond x = 1.5. From x = 0 the pure Newton
    step lands on 3; each rejected trial raises the shift, so the next trial
    step is shorter, until one is feasible and lower, which is taken. No
    RuntimeWarning is raised."""
    trials = []

    def fun(x):
        trials.append(float(x[0]))
        if x[0] > 1.5:
            return np.inf, np.full(1, np.nan), np.full((1, 1), np.nan)
        return float((x[0] - 3.0) ** 2), 2.0 * (x - 3.0), np.full((1, 1), 2.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = fitting._newton(fun, np.zeros(1), max_iter=1)
    steps = trials[1:]
    assert math.isclose(steps[0], 3.0, rel_tol=2**-52, abs_tol=0)
    assert all(a > b for a, b in zip(steps, steps[1:]))
    assert all(x > 1.5 for x in steps[:-1]) and 0.0 < steps[-1] <= 1.5
    assert (run.nit, run.nfev, float(run.x[0])) == (1, len(trials), steps[-1])
    assert run.message == "max_iter (1) steps taken" and not run.converged


def test_newton_takes_a_trial_at_the_rounding_floor_that_meets_the_decrement_rule():
    """f = (x^2 + 1e-4 y^2)/2 from (0, y0), where the decrement 1e-4 y0^2
    = 3e-12 is above tol = 1e-12 (1 + |f|): the Newton step lands on the
    minimizer, where f reads 2e-12, as if rounded, 5e-13 above f(start).
    That trial meets the decrement rule and lies within tol of f, so it is
    taken and the run converges there; rejected, the shifted step would
    predict a gain below tol/2 and end the run unconverged."""
    def fun(v):
        x, y = v
        f = 0.5 * (x * x + 1e-4 * y * y) + (2e-12 if abs(y) < 1e-10 else 0.0)
        return f, np.array([x, 1e-4 * y]), np.diag([1.0, 1e-4])

    y0 = math.sqrt(3e-12 / 1e-4)
    run = fitting._newton(fun, np.array([0.0, y0]), max_iter=10)
    assert (run.nit, run.nfev, run.message) == (1, 2, fitting._DECREMENT_STOP)
    assert run.converged and abs(run.x[1]) < 1e-10


def test_newton_at_max_iter_zero_returns_the_start():
    x0 = np.array([-1.2, 1.0])
    run = fitting._newton(_rosenbrock, x0, max_iter=0)
    assert (run.nit, run.nfev) == (0, 1)
    np.testing.assert_array_equal(run.x, x0)
    assert (run.fun, run.message) == (_rosenbrock(x0)[0], "max_iter (0) steps taken")
    assert not run.converged


def test_newton_from_an_infeasible_start_stops_there():
    run = fitting._newton(
        lambda x: (np.inf, np.full_like(x, np.nan), np.full((x.size, x.size), np.nan)),
        np.zeros(3), max_iter=10)
    assert (run.nit, run.nfev, run.fun, run.message) == (0, 1, np.inf, "start is infeasible")
    assert not run.converged


def test_newton_at_a_saddle_point_stops_on_the_gain_rule():
    """At the saddle point of x^2 - y^2 the score is 0 and the Hessian
    indefinite: no decrement applies, the shifted step predicts no gain, and
    the run ends before any trial."""
    def fun(v):
        x, y = v
        return x * x - y * y, np.array([2.0 * x, -2.0 * y]), np.diag([2.0, -2.0])

    run = fitting._newton(fun, np.zeros(2), max_iter=10)
    assert (run.nit, run.nfev, run.message) == (0, 1, fitting._GAIN_STOP)
    assert not run.converged


def test_newton_ends_on_the_gain_rule_when_no_shift_has_a_factor():
    """H = [[0, 1e308], [1e308, 0]] has eigenvalues +-1e308. The shift
    doubles from 1e-3, and its last finite value, 1e-3 2^1033 = 9.2e307,
    still leaves H + lam I indefinite: the run ends there, on the gain
    rule, without a LinAlgError or a RuntimeWarning."""
    def fun(x):
        return 0.0, np.ones(2), np.array([[0.0, 1e308], [1e308, 0.0]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = fitting._newton(fun, np.zeros(2), max_iter=10)
    assert (run.nit, run.nfev, run.message) == (0, 1, fitting._GAIN_STOP)
    assert run.inv_factor is None and not run.converged


@pytest.mark.parametrize("model_id", ["wei_lognormal", "rp9_gamma"])
def test_each_fit_evaluation_is_one_loglik_call_with_the_information(monkeypatch, model_id):
    """Every evaluation of a fit is one _loglik_core call that also returns
    the information, and the fit ends at the best point it evaluated."""
    data = _anchored_data((20, 150))
    calls = []
    core = fitting._loglik_core

    def recording(prep, spec, vec, information=False):
        out = core(prep, spec, vec, information)
        calls.append((information, vec.copy(), out[0]))
        return out

    monkeypatch.setattr(fitting, "_loglik_core", recording)
    res = fit(model_from_id(model_id), data)
    assert res.converged and len(calls) == res.n_evaluations
    assert all(information for information, _, _ in calls)
    _, vec, ll = max(calls, key=lambda c: c[2])
    assert res.loglik == ll
    np.testing.assert_array_equal(res.trans, vec)


@pytest.mark.parametrize("model_id,natural,transformed", [
    ("exp_gamma", ["rate"], ["log_rate"]),
    ("wei_lognormal", ["rate", "shape"], ["log_rate", "log_shape"]),
    ("gom_gamma", ["rate", "gamma"], ["log_rate", "gamma"]),
    ("rp3_lognormal", ["s0", "s1", "s2", "s3"], ["s0", "s1", "s2", "s3"]),
], ids=["exp", "wei", "gom", "rp3"])
def test_parameter_names_are_the_hazards_fields(model_id, natural, transformed):
    """The baseline's parameters are the fields of its hazards class (the
    spline coefficients for rp), then beta and the frailty variance; the
    positive ones are fitted as logs. These names key the fit JSON."""
    spec = model_from_id(model_id)
    assert spec.natural_names() == natural + ["beta", "frailty_var"]
    assert spec.param_names() == transformed + ["beta", "log_frailty_var"]
    assert (spec.n_baseline_params, spec.n_params) == (len(natural), len(natural) + 2)


@pytest.mark.parametrize("model_id,baseline,logs", [
    ("exp_gamma", [0.45], [True, False, True]),
    ("wei_lognormal", [0.45, 1.3], [True, True, False, True]),
    ("gom_gamma", [0.45, -0.15], [True, False, False, True]),
    ("rp5_gamma", [-1.2, 0.9, -0.3, 0.05, 0.2, -0.1], [False] * 7 + [True]),
], ids=["exp", "wei", "gom", "rp5"])
def test_pack_unpack_round_trip(model_id, baseline, logs):
    """The log_* entries of param_names() are the logs of their natural
    values and the others the values themselves, also a negative Gompertz
    slope, and unpack_params inverts pack_params."""
    spec = model_from_id(model_id)
    assert spec.log_scale.tolist() == logs
    basis = place_knots(np.log(np.linspace(0.1, 5.0, 50)), 5) if spec.df else None
    params = ModelParams(spec, np.array(baseline), -0.4, 0.8, basis=basis)
    natural = params.natural_vector()
    vec = pack_params(params)
    logs = np.array(logs)
    assert (vec[logs] == np.log(natural[logs])).all()
    assert (vec[~logs] == natural[~logs]).all()
    back = unpack_params(spec, vec, basis=basis)
    np.testing.assert_allclose(back.baseline, params.baseline, rtol=1e-14)
    assert abs(back.beta - params.beta) <= 1e-14
    assert abs(back.frailty_var - params.frailty_var) <= 1e-14
    assert back.basis is basis


@pytest.mark.parametrize("model_id", all_model_ids())
def test_natural_standard_errors_match_a_difference_jacobian(model_id):
    """se_natural is sqrt(diag(J cov_trans J')), with J the central
    differences, step 1e-6 (1 + |x|), of params_from_trans(res, v).natural_vector()
    at trans."""
    _, _, res = _study_fit(model_id, (20, 150))
    assert res.cov_trans is not None
    jac = np.empty((res.n_params, res.n_params))
    for k in range(res.n_params):
        step = np.zeros(res.n_params)
        step[k] = 1e-6 * (1.0 + abs(res.trans[k]))
        up = params_from_trans(res, res.trans + step).natural_vector()
        down = params_from_trans(res, res.trans - step).natural_vector()
        jac[:, k] = (up - down) / (2.0 * step[k])
    want = np.sqrt(np.diag(jac @ res.cov_trans @ jac.T))
    np.testing.assert_allclose(res.se_natural, want, rtol=1e-6)


@pytest.mark.parametrize("model_id", all_model_ids())
def test_fitted_params_give_the_hazards_of_the_optimizer_rows(model_id):
    """params (to_raw @ trans unpacked) evaluated on the raw spline basis by
    conditional_pieces give the cumulative hazards that the fit's own rows
    (the QR columns for rp) give at trans, to 1e-10 relative: the collinear
    raw rp9 columns amplify the rounding of the raw coefficients to about
    9e-12."""
    prep, spec, res = _study_fit(model_id, (20, 150))
    _, H = conditional_pieces(spec, res.params, prep.rows.t, prep.rows.x)
    want = fitting._log_h_and_H(prep, res.trans)[1]
    np.testing.assert_allclose(H, want, rtol=1e-10)


@pytest.mark.parametrize("model_id", all_model_ids())
def test_marginal_model_from_fit_gives_the_hazards_of_the_fitted_params(model_id):
    """MarginalModel.from_fit takes H from the fit's own rows at trans, and
    0 at t = 0; from t = 0 to past the last follow-up, in both arms, that is
    the oracle's conditional_pieces of the fitted params to 1e-10 relative,
    the bound of the test above."""
    _, spec, res = _study_fit(model_id, (20, 150))
    model = MarginalModel.from_fit(res)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 60)))
    for x in (0.0, 1.0):
        want = np.zeros_like(t)
        want[1:] = conditional_pieces(spec, res.params, t[1:], x)[1]
        np.testing.assert_allclose(model.cumulative_hazard(t, x), want, rtol=1e-10)


@pytest.mark.parametrize("model_id", all_model_ids())
def test_cached_lle_rows_are_the_baselines_whichever_family_built_them(model_id):
    """The LLE's rows depend on the baseline and not on the frailty family:
    the fit of the other family to the same dataset keys the same cache
    entry, and H from _log_h_and_H on its rows at res.trans equals
    MarginalModel.from_fit(res) at the same nodes, bit for bit, in both
    arms."""
    _, spec, res = _study_fit(model_id, (20, 150))
    family = "lognormal" if spec.frailty is FrailtyFamily.GAMMA else "gamma"
    other = _study_fit(f"{model_id.split('_')[0]}_{family}", (20, 150))[2]
    estimands._lle_grid.cache_clear()
    prep = estimands._lle_grid_of(other, 5.0)[0]
    assert estimands._lle_grid_of(res, 5.0)[0] is prep
    H = fitting._log_h_and_H(prep, res.trans)[1]
    model = MarginalModel.from_fit(res)
    n = prep.rows.t.size // 2
    for arm, x in ((slice(None, n), 0.0), (slice(n, None), 1.0)):
        assert (prep.rows.x[arm] == x).all()
        assert np.array_equal(H[arm], model.cumulative_hazard(prep.rows.t[arm], x))
    estimands._lle_grid.cache_clear()


@pytest.mark.parametrize("model_id,baseline,want_h,want_H", [
    ("exp_gamma", [0.4], 0.4 * math.exp(-0.3), 0.8 * math.exp(-0.3)),
    ("wei_gamma", [0.5, 2.0], 2.0 * math.exp(-0.3), 2.0 * math.exp(-0.3)),
    ("gom_gamma", [0.4, -0.5], 0.4 * math.exp(-1.3), 0.8 * (1.0 - math.exp(-1.0)) * math.exp(-0.3)),
    ("gom_gamma", [0.4, 0.0], 0.4 * math.exp(-0.3), 0.8 * math.exp(-0.3)),
    ("gom_gamma", [0.4, 0.5], 0.4 * math.exp(0.7), 0.8 * (math.e - 1.0) * math.exp(-0.3)),
], ids=["exp", "wei", "gom_decreasing", "gom_flat", "gom_increasing"])
def test_conditional_pieces_closed_forms(model_id, baseline, want_h, want_H):
    """h and H at t = 2 in the treated arm, beta = -0.3, written out by
    hand; gamma = 0 is the Gompertz default start."""
    spec = model_from_id(model_id)
    params = ModelParams(spec, np.array(baseline), -0.3, 0.6)
    h, H = conditional_pieces(spec, params, 2.0, 1.0)
    assert abs(h - want_h) <= 1e-15
    assert abs(H - want_H) <= 1e-15


def test_fit_recovers_exponential_gamma_truth():
    sc = make_scenario("exp", "gamma", 0.5, 400, 25)
    data = generate_dataset(sc, 20240111)
    res = fit(model_from_id("exp_gamma"), data)
    assert res.converged
    assert res.cov_trans is not None
    assert abs(res.beta_hat - sc.beta) <= 0.05
    assert abs(res.frailty_var_hat - 0.5) <= 0.1
    rate = res.params.natural_vector()[0]
    assert 0.45 <= rate <= 0.55
    assert np.all(res.se_natural > 0)
    assert np.all(np.isfinite(res.se_natural))
    assert res.n_obs == 400 * 25


def test_fit_recovers_weibull_lognormal_truth():
    sc = make_scenario("wei", "lognormal", 0.5, 150, 20)
    data = generate_dataset(sc, 777)
    res = fit(model_from_id("wei_lognormal"), data)
    assert res.converged
    assert abs(res.beta_hat - sc.beta) <= 0.08
    assert abs(res.frailty_var_hat - 0.5) <= 0.25


def test_fit_loglik_matches_evaluation_path():
    sc = make_scenario("wei", "gamma", 0.75, 50, 12)
    data = generate_dataset(sc, 1234)
    res = fit(model_from_id("wei_gamma"), data)
    again = gamma_marginal_loglik(res.spec, res.params, data)
    assert abs(res.loglik - again) <= 1e-9 * abs(res.loglik)


def test_fit_warm_start_reaches_same_optimum():
    sc = make_scenario("exp", "gamma", 0.25, 60, 10)
    data = generate_dataset(sc, 55)
    cold = fit(model_from_id("exp_gamma"), data)
    warm = fit(model_from_id("exp_gamma"), data, start=cold.trans_raw)
    assert warm.converged
    assert abs(warm.loglik - cold.loglik) <= 1e-6 * abs(cold.loglik)
    assert abs(warm.beta_hat - cold.beta_hat) <= 1e-4


def test_fit_rp_spline_baseline_and_pieces():
    sc = make_scenario("wei", "gamma", 0.5, 100, 20)
    data = generate_dataset(sc, 5150)
    res = fit(model_from_id("rp3_gamma"), data)
    assert res.converged
    assert res.params.basis is not None
    assert abs(res.beta_hat - sc.beta) <= 0.15
    t = np.linspace(0.2, 5.0, 40)
    h, H = conditional_pieces(res.spec, res.params, t, 1.0)
    assert np.all(h > 0)
    assert np.all(np.diff(H) > 0)


@pytest.mark.parametrize("n", [6, 0])
def test_fit_rejects_zero_events(n):
    data = ClusteredDataset(
        cluster=np.arange(n, dtype=np.int64),
        time=np.full(n, 5.0),
        event=np.zeros(n, dtype=np.int8),
        treat=np.zeros(n, dtype=np.int8),
    )
    with pytest.raises(FitSetupError, match="zero events"):
        fit(model_from_id("exp_gamma"), data)


@pytest.mark.parametrize("arm", ["untreated", "treated"])
def test_fit_rejects_an_arm_without_events(arm):
    """Where one arm has no events the MLE of beta is infinite, so the fit
    is a setup error rather than a converged fit at a large finite beta."""
    treat = np.tile(np.array([0, 1], dtype=np.int8), 6)
    event = np.ones(12, dtype=np.int8)
    event[treat == (1 if arm == "treated" else 0)] = 0
    data = ClusteredDataset(
        cluster=np.repeat(np.arange(4, dtype=np.int64), 3),
        time=np.linspace(0.5, 5.0, 12),
        event=event,
        treat=treat,
    )
    for model_id in ("exp_gamma", "rp3_lognormal"):
        with pytest.raises(FitSetupError, match=f"zero events in the {arm} arm"):
            fit(model_from_id(model_id), data)


def test_fit_rejects_collinear_spline_basis():
    times = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9, 1.0 + 4e-9,
                      1.0 + 5e-9, 1.0 + 6e-9, 1.0 + 7e-9, 2.0, 3.0, 4.0, 5.0])
    data = ClusteredDataset(
        cluster=np.zeros(12, dtype=np.int64),
        time=times,
        event=np.ones(12, dtype=np.int8),
        treat=np.zeros(12, dtype=np.int8),
    )
    with pytest.raises(FitSetupError):
        fit(model_from_id("rp9_gamma"), data)


def test_information_criteria_formulas():
    sc = make_scenario("exp", "gamma", 0.25, 60, 10)
    data = generate_dataset(sc, 55)
    res = fit(model_from_id("exp_gamma"), data)
    aic, bic = information_criteria(res)
    k = res.n_params
    assert aic == 2 * k - 2 * res.loglik
    assert bic == k * math.log(res.n_obs) - 2 * res.loglik
    # clustered BIC variant: n = number of clusters
    _, bic_g = information_criteria(res, n_obs=60)
    assert bic_g == k * math.log(60) - 2 * res.loglik


def test_fit_result_properties_consistent():
    sc = make_scenario("exp", "gamma", 0.25, 60, 10)
    data = generate_dataset(sc, 55)
    res = fit(model_from_id("exp_gamma"), data)
    assert res.n_params == len(res.trans) == len(res.spec.param_names())
    assert res.beta_hat == res.params.beta
    assert res.frailty_var_hat == res.params.frailty_var
    assert res.beta_se == res.se_natural[res.beta_index]
    assert res.condition_number >= 1.0
    assert res.cov_trans is not None
    np.testing.assert_allclose(res.cov_trans, res.cov_trans.T, atol=1e-12)
    # the natural-scale parameter vector round-trips through the transform
    back = params_from_trans(res, res.trans)
    np.testing.assert_allclose(
        back.natural_vector(), res.params.natural_vector(), rtol=1e-10)


def test_fit_with_nontrivial_gh_nodes_override():
    sc = make_scenario("exp", "lognormal", 0.5, 80, 8)
    data = generate_dataset(sc, 808)
    coarse = fit(model_from_id("exp_lognormal"), data)
    fine = fit(dataclasses.replace(model_from_id("exp_lognormal"), gh_nodes=31), data)
    assert coarse.converged and fine.converged
    # the adaptive rule makes node count nearly immaterial
    assert abs(coarse.beta_hat - fine.beta_hat) <= 1e-4
