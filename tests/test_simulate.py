"""Tests for scenario construction, data generation, and dataset IO."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from frailsim.exceptions import DataError, DomainError
from frailsim.harness import derive_seed
from frailsim.hazards import Exponential, FrailtyFamily, FrailtySpec, WeibullMixture
from frailsim import simulate
from frailsim.simulate import (
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    DATASET_HEADER,
    MAX_ABS_BETA,
    ClusteredDataset,
    Scenario,
    _cluster_keys,
    _cluster_words,
    _scenario_key,
    generate_dataset,
    make_scenario,
    study_baselines,
    read_dataset_csv,
    scenario_grid,
    simulate_time,
    write_dataset_csv,
    write_manifest,
)

from oracles import cluster_rng, ziggurat_tables


def test_scenario_grid_dimensions():
    grid = scenario_grid()
    assert len(grid) == 90
    sizes = {(s.n_clusters, s.cluster_size) for s in grid}
    assert sizes == {(750, 2), (20, 150)}
    families = {s.frailty.family for s in grid}
    assert len(families) == 3
    variances = {s.frailty.variance for s in grid}
    assert variances == {0.25, 0.75, 1.25}
    baselines = {s.baseline_label for s in grid}
    assert baselines == {"exp", "wei", "gom", "ww1", "ww2"}
    ids = [s.id for s in grid]
    assert len(set(ids)) == 90


def test_scenario_grid_is_full_factorial():
    grid = scenario_grid()
    combos = {
        (s.baseline_label, s.frailty.family.value, s.frailty.variance,
         s.n_clusters, s.cluster_size)
        for s in grid
    }
    assert len(combos) == 2 * 3 * 3 * 5


def test_scenario_grid_shared_defaults():
    for s in scenario_grid():
        assert s.beta == -0.5
        assert s.treat_prob == 0.5
        assert s.censor_time == 5.0


def test_make_scenario_id_format():
    s = make_scenario("exp", "gamma", 0.25, 750, 2)
    assert s.id == "exp_gamma_t025_750x2"
    s = make_scenario("ww2", "mixturenormal", 1.25, 20, 150)
    assert s.id == "ww2_mixturenormal_t125_20x150"
    assert s.baseline_label == "ww2"


def test_make_scenario_accepts_family_enum():
    s = make_scenario("wei", FrailtyFamily.LOG_NORMAL, 0.75, 20, 150)
    assert s.frailty.family is FrailtyFamily.LOG_NORMAL


def test_study_baseline_parameters():
    tags = study_baselines()
    assert set(tags) == {"exp", "wei", "gom", "ww1", "ww2"}
    assert tags["exp"].rate == 0.5
    assert (tags["wei"].rate, tags["wei"].shape) == (0.5, 0.8)
    assert (tags["gom"].rate, tags["gom"].gamma) == (0.5, 0.2)
    ww1 = tags["ww1"]
    assert (ww1.rate1, ww1.shape1, ww1.rate2, ww1.shape2, ww1.mix) == (
        0.3, 1.5, 0.5, 2.5, 0.7)
    ww2 = tags["ww2"]
    assert (ww2.rate1, ww2.shape1, ww2.rate2, ww2.shape2, ww2.mix) == (
        0.5, 1.3, 0.5, 0.7, 0.5)


def test_scenario_validation():
    baseline = Exponential(0.5)
    frailty = make_scenario("exp", "gamma", 0.25, 2, 2).frailty
    with pytest.raises(ValueError):
        Scenario(baseline, frailty, 0, 5, id="bad")
    with pytest.raises(ValueError):
        Scenario(baseline, frailty, 5, 5, treat_prob=1.5, id="bad")
    with pytest.raises(ValueError):
        Scenario(baseline, frailty, 5, 5, censor_time=0.0, id="bad")
    with pytest.raises(ValueError):
        Scenario(baseline, frailty, 5, 5, id="")
    for beta in (MAX_ABS_BETA, -MAX_ABS_BETA, 1e300, -1e300, np.inf, np.nan):
        with pytest.raises(ValueError):
            Scenario(baseline, frailty, 5, 5, beta=beta, id="bad")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tag", ["exp", "wei", "gom"])
def test_beta_just_inside_the_negative_bound_censors_the_treated_arm(tag):
    """At beta = -nextafter(MAX_ABS_BETA, 0), exp(beta) is 7.4e-309 and a
    treated subject's inversion target may overflow to inf: each treated
    subject is censored, with no overflow warning, and the control arm is
    the one drawn at the default beta."""
    sc = make_scenario(tag, "gamma", 0.75, 20, 50)
    edge = dataclasses.replace(sc, beta=-np.nextafter(MAX_ABS_BETA, 0.0))
    data, ref = generate_dataset(edge, 11), generate_dataset(sc, 11)
    treated = data.treat == 1
    assert 0 < treated.sum() < treated.size
    assert (data.time[treated] == sc.censor_time).all()
    assert not data.event[treated].any()
    np.testing.assert_array_equal(data.time[~treated], ref.time[~treated])
    np.testing.assert_array_equal(data.event[~treated], ref.event[~treated])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", [-60.0, -100.0])
@pytest.mark.parametrize("tag", ["ww1", "ww2"])
def test_mixture_scenario_at_a_large_negative_beta_censors_the_treated_arm(tag, beta):
    """A treated subject's target is then far above H0(censor_time), where
    the mixture inversion can miss its root (ww2 from about 1e16): such a
    target is not inverted but censored. The control arm has the times of
    the default-beta draw, to the inversion's precision, and its events."""
    sc = make_scenario(tag, "gamma", 0.75, 20, 50)
    data = generate_dataset(dataclasses.replace(sc, beta=beta), 11)
    ref = generate_dataset(sc, 11)
    treated = data.treat == 1
    assert 0 < treated.sum() < treated.size
    assert (data.time[treated] == sc.censor_time).all()
    assert not data.event[treated].any()
    np.testing.assert_allclose(data.time[~treated], ref.time[~treated], rtol=1e-12)
    np.testing.assert_array_equal(data.event[~treated], ref.event[~treated])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_latent_times_that_underflow_are_positive_and_round_trip(tmp_path):
    """At beta = 600 the power target**(1/shape) of about half the
    subjects underflows: each such time is the smallest positive double, not
    0, so the CSV that simulate writes reads back."""
    sc = dataclasses.replace(make_scenario("wei", "gamma", 0.75, 20, 150), beta=600.0)
    data = generate_dataset(sc, 7)
    smallest = np.nextafter(0.0, 1.0)
    assert (data.time > 0).all() and (data.time == smallest).sum() > 1000
    path = tmp_path / "underflow.csv"
    write_dataset_csv(data, path)
    back = read_dataset_csv(path)
    np.testing.assert_array_equal(back.time[data.time == smallest], smallest)
    np.testing.assert_array_equal(back.event, data.event)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixture_scenario_with_a_far_censoring_time_simulates():
    """With censoring at t = 1e30 the treated targets of a ww2 scenario at
    beta = -40 lie far above 1e16 and are inverted, each to its root."""
    far = dataclasses.replace(make_scenario("ww2", "gamma", 0.75, 20, 50), censor_time=1e30)
    data = generate_dataset(dataclasses.replace(far, beta=-40.0), 7)
    ref = generate_dataset(far, 7)
    treated = data.treat == 1
    assert data.event.all() and data.time[treated].min() > 1e20
    np.testing.assert_allclose(data.time[~treated], ref.time[~treated], rtol=1e-12)


def test_simulate_time_exponential_closed_form():
    # t = -log(u) / (alpha * rate * exp(x beta))
    got = simulate_time(Exponential(0.5), 2.0, 1.0, -0.5, 0.3)
    want = -math.log(0.3) / (2.0 * 0.5 * math.exp(-0.5))
    assert abs(got - want) <= 1e-12 * want


def test_simulate_time_mixture_inverts_the_marginal():
    b = WeibullMixture(0.3, 1.5, 0.5, 2.5, 0.7)
    alpha, x, beta, u = 0.8, 1.0, -0.5, 0.42
    t = simulate_time(b, alpha, x, beta, u)
    H = b.cumulative_hazard(np.array([t]))[0]
    assert abs(alpha * math.exp(beta * x) * H - (-math.log(u))) <= 1e-9


@pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.3])
def test_simulate_time_rejects_boundary_uniforms(u):
    with pytest.raises(DomainError):
        simulate_time(Exponential(0.5), 1.0, 0.0, -0.5, u)


def test_simulate_time_rejects_nonpositive_frailty():
    with pytest.raises(DomainError):
        simulate_time(Exponential(0.5), 0.0, 0.0, -0.5, 0.5)


def test_generate_dataset_shapes_and_ranges():
    sc = make_scenario("wei", "gamma", 0.75, 40, 25)
    data = generate_dataset(sc, 123)
    n = 40 * 25
    assert data.time.shape == (n,)
    assert data.cluster.shape == (n,)
    assert data.event.dtype == np.int8
    assert data.treat.dtype == np.int8
    assert set(np.unique(data.event)) <= {0, 1}
    assert set(np.unique(data.treat)) <= {0, 1}
    assert np.all(data.time > 0)
    assert np.all(data.time <= sc.censor_time)
    # censored exactly at the administrative cutoff
    assert np.all(data.time[data.event == 0] == sc.censor_time)
    assert np.all(data.time[data.event == 1] < sc.censor_time)
    np.testing.assert_array_equal(np.unique(data.cluster), np.arange(40))
    counts = np.bincount(data.cluster)
    assert np.all(counts == 25)
    assert data.scenario_id == sc.id
    assert data.seed == 123


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gamma_frailty_that_underflows_to_zero_censors_its_cluster():
    """At frailty variance 200 a Gamma frailty is 200 times a standard gamma
    draw of shape 1/200, which underflows to exactly 0 in many clusters.
    Such a cluster has no hazard, the limit of its draws: its subjects are
    censored at censor_time, and the other clusters keep their events."""
    sc = make_scenario("exp", "gamma", 200.0, 400, 2)
    data = generate_dataset(sc, 7)
    zero = np.repeat(_stream_frailties(sc, 7) == 0.0, sc.cluster_size)
    assert 0 < zero.sum() < zero.size
    assert (data.time[zero] == sc.censor_time).all()
    assert not data.event[zero].any()
    assert data.event[~zero].any()
    assert (data.time > 0).all()


def test_generate_dataset_treatment_assignment_rate():
    sc = make_scenario("exp", "gamma", 0.25, 100, 50)
    data = generate_dataset(sc, 2718)
    # 5000 Bernoulli(0.5) draws: allow 4 standard errors
    assert abs(data.treat.mean() - 0.5) <= 4 * 0.5 / math.sqrt(5000)


def test_generate_dataset_deterministic():
    sc = make_scenario("ww1", "lognormal", 0.75, 15, 8)
    a = generate_dataset(sc, 99)
    b = generate_dataset(sc, 99)
    np.testing.assert_array_equal(a.time, b.time)
    np.testing.assert_array_equal(a.event, b.event)
    np.testing.assert_array_equal(a.treat, b.treat)
    c = generate_dataset(sc, 100)
    assert not np.array_equal(a.time, c.time)


def test_cluster_rng_streams_are_stable_and_distinct():
    a = cluster_rng(5, "some_scenario", 3).random(4)
    b = cluster_rng(5, "some_scenario", 3).random(4)
    np.testing.assert_array_equal(a, b)
    c = cluster_rng(5, "some_scenario", 4).random(4)
    assert not np.array_equal(a, c)
    d = cluster_rng(5, "other_scenario", 3).random(4)
    assert not np.array_equal(a, d)
    ss = np.random.SeedSequence((5, _scenario_key("some_scenario"), 3))
    np.testing.assert_array_equal(a, np.random.Generator(np.random.Philox(ss)).random(4))


KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, 2**64,
             2**96 - 1, 2**96, 12345678901234)
KEY_CLUSTERS = [*range(64), *range(64, 20_000, 997), 20_000, 2**32 - 1]


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("scenario_id", ["exp_gamma_t025_750x2", "ww2_mixturenormal_t125_20x150"])
def test_cluster_keys_equal_numpy_seed_sequence(seed, scenario_id):
    keys = _cluster_keys(seed, scenario_id, KEY_CLUSTERS)
    oracle = np.array([
        np.random.SeedSequence((seed, _scenario_key(scenario_id), c)).generate_state(2, np.uint64)
        for c in KEY_CLUSTERS
    ])
    assert keys.dtype == np.uint64
    np.testing.assert_array_equal(keys, oracle)


def test_cluster_keys_reject_negative_seeds_and_out_of_range_indices():
    for seed, clusters in ((-9, [0]), (9, [-1]), (9, [2**32])):
        with pytest.raises(ValueError):
            _cluster_keys(seed, "s", clusters)


def _oracle_sample(frailty, rng, size):
    # FrailtySpec.sample as it was before the shared standard-variate transform
    if frailty.family is FrailtyFamily.GAMMA:
        return rng.gamma(shape=1.0 / frailty.variance, scale=frailty.variance, size=size)
    if frailty.family is FrailtyFamily.LOG_NORMAL:
        return np.exp(rng.normal(0.0, np.sqrt(frailty.variance), size=size))
    (_, lo_mean), (_, hi_mean) = frailty.components
    means = np.where(rng.random(size) < 0.5, lo_mean, hi_mean)
    return np.exp(rng.normal(means, np.sqrt(frailty.variance)))


def _oracle_dataset(scenario, seed):
    """generate_dataset as one Generator per cluster from its SeedSequence."""
    m = scenario.cluster_size
    n = scenario.n_subjects
    treat = np.empty(n, dtype=np.int8)
    uniforms = np.empty(n)
    frailties = np.empty(scenario.n_clusters)
    for c in range(scenario.n_clusters):
        ss = np.random.SeedSequence((seed, _scenario_key(scenario.id), c))
        rng = np.random.Generator(np.random.Philox(ss))
        frailties[c] = _oracle_sample(scenario.frailty, rng, 1)[0]
        x = (rng.random(m) < scenario.treat_prob).astype(np.int8)
        u = rng.random(m)
        while (u == 0.0).any():
            zero = u == 0.0
            u[zero] = rng.random(int(zero.sum()))
        treat[c * m:(c + 1) * m] = x
        uniforms[c * m:(c + 1) * m] = u
    # only the targets below H0(censor_time), which may overflow to inf,
    # are inverted; the others are censored
    alpha = np.repeat(frailties, m)
    with np.errstate(over="ignore"):
        early = (-np.log(uniforms) / (alpha * np.exp(treat * scenario.beta))
                 < scenario.baseline.cumulative_hazard(scenario.censor_time))
    latent = np.full(n, np.inf)
    latent[early] = simulate_time(scenario.baseline, alpha[early], treat[early],
                                  scenario.beta, uniforms[early])
    cluster = np.repeat(np.arange(scenario.n_clusters, dtype=np.int64), m)
    time = np.minimum(latent, scenario.censor_time)
    event = (latent < scenario.censor_time).astype(np.int8)
    return cluster, time, event, treat, frailties


def _stream_frailties(scenario, seed):
    """Each cluster's frailty, drawn first from that cluster's own stream."""
    frailty = scenario.frailty
    variates = [frailty.standard_variates(cluster_rng(seed, scenario.id, c))
                for c in range(scenario.n_clusters)]
    return frailty.from_standard(*np.array(variates).T)


def test_generate_dataset_equals_the_per_cluster_generator_oracle():
    for scenario in scenario_grid():
        for rep in range(2):
            seed = derive_seed(20250317, scenario.id, rep)
            data = generate_dataset(scenario, seed)
            got = (data.cluster, data.time, data.event, data.treat,
                   _stream_frailties(scenario, seed))
            for name, a, b in zip(("cluster", "time", "event", "treat", "frailties"),
                                  got, _oracle_dataset(scenario, seed)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    scenario.id, rep, name)


class _ZeroingGenerator:
    """A Generator whose random() returns 0.0 wherever the wrapped
    generator drew ``value``; every other method passes through."""

    def __init__(self, generator, value):
        self._rng = generator
        self._value = value

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None, dtype=np.float64, out=None):
        draws = self._rng.random(size, dtype, out)
        if np.ndim(draws) == 0:
            return 0.0 if draws == self._value else draws
        draws[draws == self._value] = 0.0
        return draws


@pytest.mark.parametrize("family", ["gamma", "lognormal", "mixturenormal"])
def test_zero_inversion_uniform_is_redrawn_from_its_cluster_stream(monkeypatch, family):
    """Force one inversion uniform of one cluster to 0, in the Philox words
    of the vectorised pass and in every Generator: generate_dataset redraws
    it from the rest of that cluster's stream, as the per-cluster oracle
    does, and leaves every other row unchanged."""
    # no censoring, so that every uniform shows in its time
    scenario = make_scenario("ww2", family, 0.75, 20, 150, censor_time=1e300)
    seed, forced_cluster, forced_row = 11, 7, 42
    m = scenario.cluster_size
    rng = cluster_rng(seed, scenario.id, forced_cluster)
    scenario.frailty.standard_variates(rng)
    value = rng.random(2 * m)[m + forced_row]
    clean = generate_dataset(scenario, seed)

    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator",
                        lambda bit_generator: _ZeroingGenerator(generator(bit_generator), value))
    cluster_words = simulate._cluster_words

    def zeroing_words(keys, n_words):
        words = cluster_words(keys, n_words)
        words[simulate._doubles(words) == value] = 0
        return words

    monkeypatch.setattr(simulate, "_cluster_words", zeroing_words)
    data = generate_dataset(scenario, seed)
    got = (data.cluster, data.time, data.event, data.treat)
    for name, a, b in zip(("cluster", "time", "event", "treat"),
                          got, _oracle_dataset(scenario, seed)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    row = forced_cluster * m + forced_row
    others = np.arange(scenario.n_subjects) != row
    assert data.time[row] != clean.time[row]
    assert data.time[others].tobytes() == clean.time[others].tobytes()
    assert data.event[others].tobytes() == clean.event[others].tobytes()
    assert data.treat.tobytes() == clean.treat.tobytes()


@pytest.mark.parametrize("n_words", [1, 3, 4, 5, 302])
def test_cluster_words_equal_numpy_philox_random_raw(n_words):
    top = 2**64 - 1
    keys = np.vstack([np.random.default_rng(5).bit_generator.random_raw((8, 2)),
                      np.array([[0, 0], [top, top], [0, top], [top, 0]], dtype=np.uint64)])
    oracle = np.array([np.random.Philox(key=key).random_raw(n_words) for key in keys])
    words = _cluster_words(keys, n_words)
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(words, oracle)


def test_ziggurat_tables_equal_the_installed_numpy_sampler():
    """A numpy whose normal sampler changed fails here, instead of giving
    other datasets without an error."""
    wi, ki = ziggurat_tables()
    assert _ZIGGURAT_WI.tobytes() == np.array(wi).tobytes()
    assert _ZIGGURAT_KI.dtype == np.uint64
    assert _ZIGGURAT_KI.tobytes() == np.array(ki, dtype=np.uint64).tobytes()


def _assert_equals_oracle(scenario, seed):
    data = generate_dataset(scenario, seed)
    got = (data.cluster, data.time, data.event, data.treat)
    for name, a, b in zip(("cluster", "time", "event", "treat"),
                          got, _oracle_dataset(scenario, seed)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (scenario.id, seed, name)


def test_generate_dataset_equals_the_oracle_on_three_reps_of_the_grid():
    for scenario in scenario_grid():
        for rep in range(3):
            _assert_equals_oracle(scenario, derive_seed(20240901, scenario.id, rep))


@pytest.mark.parametrize("family, variance", [
    # Gamma shapes 1 (numpy's exponential path), 0.8 and 1/3, all on the
    # redraw path, and 1e6
    ("gamma", 1.0), ("gamma", 1.25), ("gamma", 3.0), ("gamma", 1e-6),
    ("lognormal", 0.01), ("lognormal", 4.0),
    ("mixturenormal", 0.01), ("mixturenormal", 4.0),
])
def test_generate_dataset_equals_the_oracle_on_other_frailty_laws(monkeypatch, family, variance):
    """Byte for byte; on a 750x2 dataset some clusters take the redraw path,
    which draws the standard variates through a Generator."""
    standard_variates = FrailtySpec.standard_variates
    redrawn = []

    def counted(self, rng, size=None):
        redrawn.append(1)
        return standard_variates(self, rng, size)

    monkeypatch.setattr(FrailtySpec, "standard_variates", counted)
    for tag, n_clusters, cluster_size in (("wei", 750, 2), ("ww1", 20, 150)):
        scenario = make_scenario(tag, family, variance, n_clusters, cluster_size)
        for rep in range(2):
            redrawn.clear()
            _assert_equals_oracle(scenario, derive_seed(20240901, scenario.id, rep))
            if n_clusters == 750:
                assert redrawn, (scenario.id, rep)


@pytest.mark.parametrize("family", list(FrailtyFamily))
def test_frailty_sample_equals_the_numpy_sampler_oracle(family):
    for variance in (0.25, 0.75, 1.25, 3.0):
        spec = FrailtySpec(family, variance)
        for seed in range(5):
            for size in (1, 7, 1000):
                got = spec.sample(np.random.default_rng(seed), size)
                want = _oracle_sample(spec, np.random.default_rng(seed), size)
                assert got.tobytes() == want.tobytes(), (family, variance, seed, size)


def test_frailty_shifts_cluster_hazards():
    """Clusters with larger sampled frailty should die earlier on average,
    a cheap end-to-end sanity check of the shared-frailty construction."""
    sc = make_scenario("exp", "gamma", 1.25, 200, 40)
    data = generate_dataset(sc, 31415)
    frailties = _stream_frailties(sc, 31415)
    mean_time = np.array([
        data.time[data.cluster == g].mean() for g in range(200)
    ])
    r = np.corrcoef(frailties, mean_time)[0, 1]
    assert r < -0.5


def test_dataset_csv_round_trip(tmp_path):
    sc = make_scenario("gom", "mixturenormal", 0.25, 12, 6)
    data = generate_dataset(sc, 404)
    path = tmp_path / "data.csv"
    write_dataset_csv(data, path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(DATASET_HEADER)
    back = read_dataset_csv(path)
    np.testing.assert_allclose(back.time, data.time, rtol=1e-11)
    np.testing.assert_array_equal(back.event, data.event)
    np.testing.assert_array_equal(back.treat, data.treat)
    np.testing.assert_array_equal(back.cluster, data.cluster)


def test_read_dataset_csv_maps_labels_in_order(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "cluster,time,event,treat\n"
        "siteB,1.5,1,0\n"
        "siteA,2.5,0,1\n"
        "siteB,0.7,1,1\n"
    )
    data = read_dataset_csv(path)
    np.testing.assert_array_equal(data.cluster, [0, 1, 0])
    assert data.cluster_labels == ("siteB", "siteA")


@pytest.mark.parametrize(
    "content,line",
    [
        ("wrong,header,entirely,x\n1,1.0,1,0\n", 1),
        ("cluster,time,event,treat\n1,-2.0,1,0\n", 2),
        ("cluster,time,event,treat\n1,1.0,2,0\n", 2),
        ("cluster,time,event,treat\n1,1.0,1,7\n", 2),
        ("cluster,time,event,treat\n1,1.0,1\n", 2),
        ("cluster,time,event,treat\n", None),
        ("", None),
        ("cluster,time,event,treat\n1,1.0,1,0\n2,abc,1,0\n", 3),
        ("cluster,time,event,treat\n1,1.0,1,0\n2,1.0,1,x\n", 3),
        ("cluster,time,event,treat\n1,1.0,1,0\n\n2,nan,0,1\n3,1.0,x,0\n", 4),
        ("cluster,time,event,treat\n1,1.0,1,0\n2,1.0,0,1\n3,2.5,1,0,9\n4,0,1,1\n", 4),
    ],
)
def test_read_dataset_csv_rejects_malformed(tmp_path, content, line):
    """The columns are checked in bulk, but the error still names the first
    line that breaks a rule, counting a blank line."""
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataError, match=None if line is None else f": line {line}: "):
        read_dataset_csv(path)


def test_read_dataset_csv_missing_file():
    with pytest.raises(DataError):
        read_dataset_csv("/nonexistent/nowhere.csv")


def test_write_manifest_records_provenance(tmp_path):
    import json

    sc = make_scenario("ww2", "gamma", 0.75, 20, 150)
    path = tmp_path / "m.json"
    write_manifest(path, sc, 42)
    payload = json.loads(path.read_text())
    assert payload["scenario_id"] == sc.id
    assert payload["seed"] == 42
    assert payload["frailty"] == {"family": "gamma", "variance": 0.75}
    assert payload["baseline"]["kind"] == "weibull_mixture"
    assert payload["n_clusters"] == 20
    assert payload["censor_time"] == 5.0


def test_clustered_dataset_field_validation():
    with pytest.raises(ValueError):
        ClusteredDataset(
            cluster=np.zeros(3, dtype=np.int64),
            time=np.ones(4),
            event=np.ones(3, dtype=np.int8),
            treat=np.zeros(3, dtype=np.int8),
        )
