"""Tests for scenario construction, data generation, and dataset IO."""
from __future__ import annotations

import math

import numpy as np
import pytest

from frailsim.exceptions import DataError, DomainError
from frailsim.harness import derive_seed
from frailsim.hazards import Exponential, FrailtyFamily, FrailtySpec, WeibullMixture
from frailsim.simulate import (
    DATASET_HEADER,
    ClusteredDataset,
    Scenario,
    _cluster_keys,
    _scenario_key,
    cluster_rng,
    generate_dataset,
    make_scenario,
    study_baselines,
    read_dataset_csv,
    scenario_grid,
    simulate_time,
    write_dataset_csv,
    write_manifest,
)


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


def test_generate_dataset_frailties_returned_per_cluster():
    sc = make_scenario("exp", "gamma", 0.75, 30, 4)
    data, frailties = generate_dataset(sc, 7, return_frailties=True)
    assert frailties.shape == (30,)
    assert np.all(frailties > 0)
    # same seed without the flag gives the identical dataset
    plain = generate_dataset(sc, 7)
    np.testing.assert_array_equal(plain.time, data.time)


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
    lo_mean, hi_mean = frailty.mixture_means
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
    latent = simulate_time(scenario.baseline, np.repeat(frailties, m), treat,
                           scenario.beta, uniforms)
    cluster = np.repeat(np.arange(scenario.n_clusters, dtype=np.int64), m)
    time = np.minimum(latent, scenario.censor_time)
    event = (latent < scenario.censor_time).astype(np.int8)
    return cluster, time, event, treat, frailties


def test_generate_dataset_equals_the_per_cluster_generator_oracle():
    for scenario in scenario_grid():
        for rep in range(2):
            seed = derive_seed(20250317, scenario.id, rep)
            data, frailties = generate_dataset(scenario, seed, return_frailties=True)
            got = (data.cluster, data.time, data.event, data.treat, frailties)
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


@pytest.mark.parametrize("family", ["gamma", "mixturenormal"])
def test_zero_inversion_uniform_is_redrawn_from_its_cluster_stream(monkeypatch, family):
    """Force one inversion uniform of one cluster to 0: generate_dataset
    redraws it from the rest of that cluster's stream, as the per-cluster
    oracle does, and leaves every other row and every frailty unchanged."""
    # no censoring, so that every uniform shows in its time
    scenario = make_scenario("ww2", family, 0.75, 20, 150, censor_time=1e300)
    seed, forced_cluster, forced_row = 11, 7, 42
    m = scenario.cluster_size
    rng = cluster_rng(seed, scenario.id, forced_cluster)
    scenario.frailty.standard_variates(rng)
    value = rng.random(2 * m)[m + forced_row]
    clean, clean_frailties = generate_dataset(scenario, seed, return_frailties=True)

    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator",
                        lambda bit_generator: _ZeroingGenerator(generator(bit_generator), value))
    data, frailties = generate_dataset(scenario, seed, return_frailties=True)
    got = (data.cluster, data.time, data.event, data.treat, frailties)
    for name, a, b in zip(("cluster", "time", "event", "treat", "frailties"),
                          got, _oracle_dataset(scenario, seed)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    row = forced_cluster * m + forced_row
    others = np.arange(scenario.n_subjects) != row
    assert data.time[row] != clean.time[row]
    assert data.time[others].tobytes() == clean.time[others].tobytes()
    assert data.event[others].tobytes() == clean.event[others].tobytes()
    assert data.treat.tobytes() == clean.treat.tobytes()
    assert frailties.tobytes() == clean_frailties.tobytes()


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
    data, frailties = generate_dataset(sc, 31415, return_frailties=True)
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
    "content",
    [
        "wrong,header,entirely,x\n1,1.0,1,0\n",
        "cluster,time,event,treat\n1,-2.0,1,0\n",
        "cluster,time,event,treat\n1,1.0,2,0\n",
        "cluster,time,event,treat\n1,1.0,1,7\n",
        "cluster,time,event,treat\n1,1.0,1\n",
        "cluster,time,event,treat\n",
        "",
    ],
)
def test_read_dataset_csv_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataError):
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
