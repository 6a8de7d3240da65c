"""Clustered survival data generation and the factorial scenario grid.

Datasets are reproducible regardless of execution order: every cluster gets
its own counter-based Philox stream keyed by (seed, scenario id, cluster
index), so generating clusters in any order, or in parallel, yields the same
rows. A cluster's key equals numpy's
``SeedSequence((seed, scenario key, cluster)).generate_state(2, np.uint64)``;
``_cluster_keys`` derives the keys of every cluster of a dataset in one
vectorised pass of that hash, and ``generate_dataset`` draws all clusters
from one Philox generator, re-keyed and rewound per cluster.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DataError, DomainError
from .hazards import (
    BaselineHazard,
    Exponential,
    FrailtyFamily,
    FrailtySpec,
    Gompertz,
    Weibull,
    WeibullMixture,
)

__all__ = [
    "Scenario",
    "ClusteredDataset",
    "simulate_time",
    "generate_dataset",
    "scenario_grid",
    "study_baselines",
    "make_scenario",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_manifest",
]

DEFAULT_BETA = -0.5
DEFAULT_TREAT_PROB = 0.5
DEFAULT_CENSOR_TIME = 5.0

GRID_SIZES = ((750, 2), (20, 150))
GRID_VARIANCES = (0.25, 0.75, 1.25)


def study_baselines() -> dict[str, BaselineHazard]:
    """The five study baselines, keyed by their scenario-id tag."""
    return {
        "exp": Exponential(rate=0.5),
        "wei": Weibull(rate=0.5, shape=0.8),
        "gom": Gompertz(rate=0.5, gamma=0.2),
        "ww1": WeibullMixture(rate1=0.3, shape1=1.5, rate2=0.5, shape2=2.5, mix=0.7),
        "ww2": WeibullMixture(rate1=0.5, shape1=1.3, rate2=0.5, shape2=0.7, mix=0.5),
    }


@dataclass(frozen=True)
class Scenario:
    """One data-generating mechanism."""

    baseline: BaselineHazard
    frailty: FrailtySpec
    n_clusters: int
    cluster_size: int
    beta: float = DEFAULT_BETA
    treat_prob: float = DEFAULT_TREAT_PROB
    censor_time: float = DEFAULT_CENSOR_TIME
    id: str = ""
    baseline_label: str = ""

    def __post_init__(self):
        if self.n_clusters < 1 or self.cluster_size < 1:
            raise ValueError("n_clusters and cluster_size must be positive")
        if not 0.0 <= self.treat_prob <= 1.0:
            raise ValueError(f"treat_prob must lie in [0, 1], got {self.treat_prob}")
        if not self.censor_time > 0:
            raise ValueError(f"censor_time must be positive, got {self.censor_time}")
        if not self.id:
            raise ValueError("scenario id must be a nonempty string")
        if not self.baseline_label:
            object.__setattr__(self, "baseline_label", self.baseline.kind)

    @property
    def n_subjects(self) -> int:
        return self.n_clusters * self.cluster_size


@dataclass(frozen=True)
class ClusteredDataset:
    cluster: np.ndarray
    time: np.ndarray
    event: np.ndarray
    treat: np.ndarray
    scenario_id: str = ""
    seed: int | None = None
    cluster_labels: tuple[str, ...] = field(default=(), repr=False)

    def __post_init__(self):
        n = self.time.shape[0]
        for name in ("cluster", "event", "treat"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"field {name} must have shape ({n},)")

    @property
    def n_subjects(self) -> int:
        return self.time.shape[0]

    @property
    def n_clusters(self) -> int:
        return int(self.cluster.max()) + 1 if self.n_subjects else 0

    @property
    def n_events(self) -> int:
        return int(self.event.sum())


def _theta_tag(variance: float) -> str:
    return f"{variance:g}".replace(".", "")


def make_scenario(
    baseline_tag: str,
    frailty_family: str | FrailtyFamily,
    variance: float,
    n_clusters: int,
    cluster_size: int,
    *,
    beta: float = DEFAULT_BETA,
    treat_prob: float = DEFAULT_TREAT_PROB,
    censor_time: float = DEFAULT_CENSOR_TIME,
    scenario_id: str | None = None,
) -> Scenario:
    """Build a scenario from the study baselines by tag ('exp', 'wei', ...)."""
    baselines = study_baselines()
    if baseline_tag not in baselines:
        raise ValueError(
            f"unknown baseline tag {baseline_tag!r}; expected one of {sorted(baselines)}"
        )
    frailty = FrailtySpec(FrailtyFamily(frailty_family), variance)
    sid = scenario_id or (
        f"{baseline_tag}_{frailty.family.value}_t{_theta_tag(variance)}"
        f"_{n_clusters}x{cluster_size}"
    )
    return Scenario(
        baseline=baselines[baseline_tag],
        frailty=frailty,
        n_clusters=n_clusters,
        cluster_size=cluster_size,
        beta=beta,
        treat_prob=treat_prob,
        censor_time=censor_time,
        id=sid,
        baseline_label=baseline_tag,
    )


def scenario_grid() -> list[Scenario]:
    """All 90 study scenarios.

    Ordering is the nested loop baseline (exp, wei, gom, ww1, ww2) ->
    frailty (gamma, lognormal, mixturenormal) -> variance (0.25, 0.75, 1.25)
    -> size ((750, 2), (20, 150)); ids follow the same fields, for example
    ``exp_gamma_t025_750x2``.
    """
    grid = []
    for baseline_tag in ("exp", "wei", "gom", "ww1", "ww2"):
        for family in (FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL,
                       FrailtyFamily.MIXTURE_NORMAL):
            for variance in GRID_VARIANCES:
                for n_clusters, cluster_size in GRID_SIZES:
                    grid.append(make_scenario(
                        baseline_tag, family, variance, n_clusters, cluster_size,
                    ))
    return grid


def simulate_time(b: BaselineHazard, alpha, x, beta: float, u):
    """Latent event time by inversion: conditional survival equals u.

    Solves exp(-alpha * e^(x*beta) * H0(t)) = u for t.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if ((u_arr <= 0.0) | (u_arr >= 1.0)).any():
        raise DomainError("u must lie strictly inside (0, 1)")
    if (alpha_arr <= 0.0).any():
        raise DomainError("frailty values must be positive")
    target = -np.log(u_arr) / (alpha_arr * np.exp(x_arr * beta))
    return b.inverse_cumulative_hazard(target)


def _scenario_key(scenario_id: str) -> int:
    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence hash (bit_generator.pyx), in uint32 arithmetic
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative integer; 0 is [0]."""
    n = int(n)
    if n < 0:
        raise ValueError(f"seed entropy must be nonnegative, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, np.uint64) for each row of a
    (rows, words) uint32 entropy array, all rows at once."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    n_words = entropy.shape[1]
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    # consecutive 32-bit words pair up little-endian into 64-bit key words
    high = np.uint64(32)
    return np.stack([state[0] | (state[1] << high),
                     state[2] | (state[3] << high)], axis=1)


def _cluster_keys(seed: int, scenario_id: str, clusters) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of the given clusters of one dataset.

    Row i equals ``SeedSequence((seed, _scenario_key(scenario_id),
    clusters[i])).generate_state(2, np.uint64)``.
    """
    index = np.asarray(clusters, dtype=np.int64).reshape(-1)
    if ((index < 0) | (index > _MASK32)).any():
        raise ValueError("cluster indices must lie in [0, 2**32)")
    prefix = _uint32_words(seed) + _uint32_words(_scenario_key(scenario_id))
    entropy = np.empty((index.size, len(prefix) + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = index
    return _seed_sequence_keys(entropy)


def cluster_rng(seed: int, scenario_id: str, cluster_index: int) -> np.random.Generator:
    """The dedicated random stream of one cluster of one dataset."""
    key = _cluster_keys(seed, scenario_id, [cluster_index])[0]
    return np.random.Generator(np.random.Philox(key=key))


def generate_dataset(
    scenario: Scenario,
    seed: int,
    *,
    return_frailties: bool = False,
):
    """Draw one clustered dataset under the scenario.

    Per cluster: one shared frailty, then per subject a Bernoulli treatment
    indicator and a uniform draw feeding the inversion. Administrative
    censoring at scenario.censor_time; a latent time exactly equal to the
    censoring time counts as censored.
    """
    m = scenario.cluster_size
    n_clusters = scenario.n_clusters
    frailty = scenario.frailty
    keys = _cluster_keys(seed, scenario.id, np.arange(n_clusters))
    bit_generator = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bit_generator)
    # a fresh Philox: counter 0 and an empty output buffer
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": keys[0]},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    variates = []
    # per cluster, m uniforms for the treatment indicators, then m for the
    # inversion
    draws = np.empty((n_clusters, 2 * m))
    for c in range(n_clusters):
        fresh["state"]["key"] = keys[c]
        bit_generator.state = fresh
        variates.append(frailty.standard_variates(rng))
        rng.random(out=draws[c])
    # a zero inversion uniform (chance 2**-53 a draw) is redrawn from the
    # rest of its cluster's stream, replayed up to the end of its 2m draws
    for c in np.flatnonzero((draws[:, m:] == 0).any(axis=1)):
        fresh["state"]["key"] = keys[c]
        bit_generator.state = fresh
        frailty.standard_variates(rng)
        rng.random(2 * m)
        u = draws[c, m:]
        while not u.all():
            zero = u == 0.0
            u[zero] = rng.random(int(zero.sum()))
    frailties = frailty.from_standard(*np.array(variates).T)
    treat = (draws[:, :m] < scenario.treat_prob).astype(np.int8).reshape(-1)
    uniforms = draws[:, m:].reshape(-1)
    cluster = np.repeat(np.arange(n_clusters, dtype=np.int64), m)
    # one batched inversion for the whole dataset (root finding dominates
    # generation cost for the mixture baselines)
    latent = simulate_time(scenario.baseline, np.repeat(frailties, m), treat,
                           scenario.beta, uniforms)
    time = np.minimum(latent, scenario.censor_time)
    event = (latent < scenario.censor_time).astype(np.int8)
    dataset = ClusteredDataset(
        cluster=cluster,
        time=time,
        event=event,
        treat=treat,
        scenario_id=scenario.id,
        seed=int(seed),
    )
    if return_frailties:
        return dataset, frailties
    return dataset


DATASET_HEADER = ("cluster", "time", "event", "treat")


def write_dataset_csv(dataset: ClusteredDataset, path: str | Path) -> None:
    path = Path(path)
    labels = dataset.cluster_labels
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for c, t, e, x in zip(dataset.cluster, dataset.time, dataset.event, dataset.treat):
            label = labels[c] if labels else int(c)
            writer.writerow([label, f"{t:.12g}", int(e), int(x)])


def read_dataset_csv(path: str | Path) -> ClusteredDataset:
    """Parse a dataset CSV, mapping cluster labels to codes in order of appearance."""
    path = Path(path)
    codes: dict[str, int] = {}
    cluster, time, event, treat = [], [], [], []
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != list(DATASET_HEADER):
            raise DataError(
                f"{path}: line 1: expected header {','.join(DATASET_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            label = row[0].strip()
            try:
                t = float(row[1])
                e = int(row[2])
                x = int(row[3])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            if not (np.isfinite(t) and t > 0):
                raise DataError(f"{path}: line {lineno}: time must be positive, got {row[1]}")
            if e not in (0, 1):
                raise DataError(f"{path}: line {lineno}: event must be 0 or 1, got {row[2]}")
            if x not in (0, 1):
                raise DataError(f"{path}: line {lineno}: treat must be 0 or 1, got {row[3]}")
            cluster.append(codes.setdefault(label, len(codes)))
            time.append(t)
            event.append(e)
            treat.append(x)
    if not time:
        raise DataError(f"{path}: no data rows")
    return ClusteredDataset(
        cluster=np.asarray(cluster, dtype=np.int64),
        time=np.asarray(time),
        event=np.asarray(event, dtype=np.int8),
        treat=np.asarray(treat, dtype=np.int8),
        cluster_labels=tuple(codes),
    )


def write_manifest(path: str | Path, scenario: Scenario, seed: int) -> None:
    payload = {
        "scenario_id": scenario.id,
        "seed": int(seed),
        "baseline": {"kind": scenario.baseline.kind, **scenario.baseline.params_dict()},
        "frailty": {"family": scenario.frailty.family.value,
                    "variance": scenario.frailty.variance},
        "n_clusters": scenario.n_clusters,
        "cluster_size": scenario.cluster_size,
        "beta": scenario.beta,
        "treat_prob": scenario.treat_prob,
        "censor_time": scenario.censor_time,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
