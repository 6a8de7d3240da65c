"""Clustered survival data generation and the factorial scenario grid.

Datasets are reproducible regardless of execution order: every cluster gets
its own counter-based Philox stream keyed by (seed, scenario id, cluster
index), so generating clusters in any order, or in parallel, yields the same
rows. A cluster's key equals numpy's
``SeedSequence((seed, scenario key, cluster)).generate_state(2, np.uint64)``;
``_cluster_keys`` derives the keys of every cluster of a dataset in one
vectorised pass of that hash.

Philox is counter-based, each output word a pure function of (key,
counter), so ``_cluster_words`` computes the first words of every cluster's
stream in one vectorised pass of numpy's Philox4x64-10. numpy's normal and
Gamma samplers decide most draws from their first one or two words by exact
arithmetic (the ziggurat, and Marsaglia and Tsang's squeeze), and
``generate_dataset`` draws every cluster from those words with that same
arithmetic. Only the clusters the words do not decide go through one
Philox generator, re-keyed and rewound for each of them. Either way a
cluster's draws are bit for bit those of numpy's own samplers on its
stream.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
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
# |beta| below log of the largest double keeps exp(x * beta) finite and
# nonzero in both arms
MAX_ABS_BETA = float(np.log(np.finfo(float).max))

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
        if not abs(self.beta) < MAX_ABS_BETA:
            raise ValueError(f"|beta| must be below {MAX_ABS_BETA:.6g}, got {self.beta}")
        if not 0.0 < self.censor_time < np.inf:
            raise ValueError(f"censor_time must be positive and finite, got {self.censor_time}")
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


def _targets(alpha, x, beta: float, u) -> np.ndarray:
    """The baseline cumulative hazards H0(t) = -log(u) / (alpha e^(x*beta))
    at which conditional survival equals u."""
    alpha_arr = np.asarray(alpha, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if ((u_arr <= 0.0) | (u_arr >= 1.0)).any():
        raise DomainError("u must lie strictly inside (0, 1)")
    if (alpha_arr <= 0.0).any():
        raise DomainError("frailty values must be positive")
    # near |beta| = MAX_ABS_BETA a target may overflow to inf, a censored time
    with np.errstate(over="ignore", divide="ignore"):
        return -np.log(u_arr) / (alpha_arr * np.exp(x_arr * beta))


def simulate_time(b: BaselineHazard, alpha, x, beta: float, u):
    """Latent event time by inversion: conditional survival equals u.

    Solves exp(-alpha * e^(x*beta) * H0(t)) = u for t.
    """
    target = _targets(alpha, x, beta, u)
    # a root may overflow to its limit, inf
    with np.errstate(over="ignore", divide="ignore"):
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


# numpy's Philox4x64-10 (Random123's philox4x64, 10 rounds), in uint64
# arithmetic: every operand is a uint64, as numpy < 2 casts a Python int
# mixed with a uint64 scalar to float64
_PHILOX_ROUNDS = 10
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0 ** -53


def _mulhi(multiplier: np.uint64, x: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products multiplier * x, from their
    32-bit halves."""
    m_lo, m_hi = multiplier & _LOW32, multiplier >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, hi_lo, lo_hi = m_lo * x_lo, m_hi * x_lo, m_lo * x_hi
    carry = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    return m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + (carry >> _SHIFT32)


def _cluster_words(keys: np.ndarray, n_words: int) -> np.ndarray:
    """The (n, n_words) first outputs of ``np.random.Philox(key=k)
    .random_raw(n_words)`` for each row k of the (n, 2) uint64 keys.

    Block j = 1, 2, ... of a stream is the Philox bijection of the counter
    (j, 0, 0, 0) under its key: numpy increments the counter before its
    first block.
    """
    n_blocks = -(-n_words // 4)
    k0, k1 = keys[:, :1], keys[:, 1:]
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), (keys.shape[0], n_blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhi(_PHILOX_M[0], c0), _PHILOX_M[0] * c0
        hi1, lo1 = _mulhi(_PHILOX_M[1], c2), _PHILOX_M[1] * c2
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(keys.shape[0], 4 * n_blocks)
    return words[:, :n_words]


def _doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random`` makes of the words."""
    return (words >> _DOUBLE_SHIFT).astype(float) * _DOUBLE_SCALE


# numpy's ziggurat tables of its standard normal (wi_double and ki_double
# in ziggurat_constants.h), read off its sampler; the tests read them off
# the installed numpy again and compare
_ZIGGURAT_WI = np.array((
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
))
_ZIGGURAT_KI = np.array((
    0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142, 0xE51F67EC1EEEA,
    0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA, 0xF37ED61FFCB18, 0xF4F469561255C,
    0xF61A5E41BA396, 0xF707A755396A4, 0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE,
    0xF9724C74DD0DA, 0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
    0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E, 0xFBDAB9D040BED,
    0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1, 0xFC6A2977AEE31, 0xFC87AA92896A4,
    0xFCA325E4BDE85, 0xFCBCCE902231A, 0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930,
    0xFD1464DD6C4E6, 0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
    0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C, 0xFD9DD07A7ADD2,
    0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0, 0xFDC9DEBB99A7D, 0xFDD3B8118729D,
    0xFDDD288342F90, 0xFDE6364369F64, 0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40,
    0xFE06FE4BC24F2, 0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
    0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A, 0xFE410E99EAD7F,
    0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524, 0xFE559F74EBC78, 0xFE5A5C8E41212,
    0xFE5EF3E138689, 0xFE6366FD91078, 0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2,
    0xFE73E5900A702, 0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
    0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6, 0xFE929CC879B1D,
    0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866, 0xFE9DF2694B6D5, 0xFEA0973ABE67C,
    0xFEA329CF166A4, 0xFEA5AAB32952C, 0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920,
    0xFEAF07865E63C, 0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
    0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E, 0xFEC0BE31EBDE8,
    0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196, 0xFEC75406CEEF4, 0xFEC8DD2500CB4,
    0xFECA5B6911F12, 0xFECBCF0C427FE, 0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7,
    0xFED1377358528, 0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
    0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704, 0xFEDB3C8746AB4,
    0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3, 0xFEDED0F909980, 0xFEDFA1E0FD414,
    0xFEE06AE124BC4, 0xFEE12C0D95A06, 0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC,
    0xFEE3E3DB89B3C, 0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
    0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA, 0xFEE84D2484AB2,
    0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA, 0xFEE9851A829EA, 0xFEE9C0E13485C,
    0xFEE9F557273F4, 0xFEEA22762CCAE, 0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA,
    0xFEEA8CE04FA0A, 0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
    0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024, 0xFEE9BBC26AF2E,
    0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516, 0xFEE88AE369C7A, 0xFEE828E7F3DFD,
    0xFEE7BDEA7B888, 0xFEE749BFF37FF, 0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888,
    0xFEE51994E57B6, 0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
    0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C, 0xFEDDBE422047E,
    0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9, 0xFED937237E98D, 0xFED7F1C38A836,
    0xFED69D2B9C02B, 0xFED538D06AE00, 0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644,
    0xFECEFDA07FE34, 0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
    0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0, 0xFEBC429A0B692,
    0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E, 0xFEB13B00B2D4B, 0xFEAE2591A02E9,
    0xFEAAEAE992257, 0xFEA788D8EE326, 0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B,
    0xFE9843BA947A4, 0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
    0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202, 0xFE67DA0B6ABD8,
    0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280, 0xFE48BD436F458, 0xFE3F9BFFD1E37,
    0xFE35D35EEB19C, 0xFE2B5122FE4FE, 0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0,
    0xFDF82B02B71AA, 0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
    0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012, 0xFD1A1A7B4C7AC,
    0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22, 0xFC32B2F1E22ED, 0xFBD6581C0B83A,
    0xFB606C4005434, 0xFAC40582A2874, 0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C,
    0xF1A5A4B331C4A,
), dtype=np.uint64)
_ZIGGURAT_INDEX = np.uint64(0xFF)
_ZIGGURAT_RABS = np.uint64(2**52 - 1)
_ONE = np.uint64(1)
_EIGHT = np.uint64(8)


def _first_word_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The standard normals that numpy's ziggurat makes of each word when
    that word alone decides the draw, and where it does; elsewhere the
    sampler goes on to a wedge or the tail and draws more words."""
    index = (words & _ZIGGURAT_INDEX).astype(np.intp)
    r = words >> _EIGHT
    rabs = (r >> _ONE) & _ZIGGURAT_RABS
    x = rabs.astype(float) * _ZIGGURAT_WI[index]
    return np.where((r & _ONE).astype(bool), -x, x), rabs < _ZIGGURAT_KI[index]


def _first_word_draws(frailty: FrailtySpec, keys: np.ndarray,
                      n_draws: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cluster's standard frailty variates and the n_draws uniforms
    after them, as ``frailty.standard_variates`` and ``Generator.random``
    draw them from its stream, computed from the stream's first words for
    all clusters at once; and which clusters those words leave undecided.

    A variate is decided when numpy's sampler takes it from its first words:
    the log-Normal's normal from word 0; the mixture's uniform from word 0
    and its normal from word 1; a Gamma variate of shape above 1 from
    Marsaglia and Tsang's squeeze on the normal X of word 0 and the uniform
    U of word 1. Every other Gamma shape is left undecided throughout, and
    then no word is computed.
    """
    n = keys.shape[0]
    if frailty.family is FrailtyFamily.GAMMA and not 1.0 / frailty.variance > 1.0:
        return np.empty((n, 1)), np.empty((n, n_draws)), np.ones(n, dtype=bool)
    n_variate_words = 1 if frailty.family is FrailtyFamily.LOG_NORMAL else 2
    words = _cluster_words(keys, n_variate_words + n_draws)
    if frailty.family is FrailtyFamily.LOG_NORMAL:
        z, decided = _first_word_normals(words[:, 0])
        variates = z[:, None]
    elif frailty.family is FrailtyFamily.MIXTURE_NORMAL:
        z, decided = _first_word_normals(words[:, 1])
        variates = np.stack((_doubles(words[:, 0]), z), axis=1)
    else:
        # numpy's random_standard_gamma, in its order of operations
        b = 1.0 / frailty.variance - 1.0 / 3.0
        c = 1.0 / np.sqrt(9 * b)
        x, decided = _first_word_normals(words[:, 0])
        v = 1.0 + c * x
        u = _doubles(words[:, 1])
        # V > 0 is numpy's loop condition; at shape > 1 the squeeze implies
        # it: V <= 0 needs |X| >= 3 sqrt(2/3) = 2.45, the squeeze |X| < 2.35
        decided &= (v > 0.0) & (u < 1.0 - 0.0331 * (x * x) * (x * x))
        variates = (b * (v * v * v))[:, None]
    return variates, _doubles(words[:, n_variate_words:]), ~decided


def generate_dataset(scenario: Scenario, seed: int) -> ClusteredDataset:
    """Draw one clustered dataset under the scenario.

    Per cluster: one shared frailty, then per subject a Bernoulli treatment
    indicator and a uniform draw feeding the inversion. Administrative
    censoring at scenario.censor_time; a latent time exactly equal to the
    censoring time counts as censored.

    Each cluster draws, from its own Philox stream, its standard frailty
    variates (``FrailtySpec.standard_variates``), then m uniforms for the
    treatment indicators and m for the inversion. One vectorised pass
    computes these from the first words of every cluster's stream. A
    cluster takes the redraw path instead, one Generator re-keyed and
    rewound for it, when those words do not decide its variates (a
    ziggurat wedge or tail, a Marsaglia-Tsang rejection or V <= 0, or any
    Gamma shape of 1 or below) or when an inversion uniform is 0: that
    uniform is redrawn from the rest of the cluster's stream. Both give the
    bits of numpy's own samplers, so a cluster's draws do not depend on
    which path it took or on the other clusters.
    """
    m = scenario.cluster_size
    n_clusters = scenario.n_clusters
    frailty = scenario.frailty
    keys = _cluster_keys(seed, scenario.id, np.arange(n_clusters))
    variates, draws, redraw = _first_word_draws(frailty, keys, 2 * m)
    # a zero inversion uniform has chance 2**-53 a draw
    redraw |= (draws[:, m:] == 0.0).any(axis=1)
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
    for c in np.flatnonzero(redraw):
        fresh["state"]["key"] = keys[c]
        bit_generator.state = fresh
        variates[c] = frailty.standard_variates(rng)
        rng.random(out=draws[c])
        u = draws[c, m:]
        while not u.all():
            zero = u == 0.0
            u[zero] = rng.random(int(zero.sum()))
    frailties = frailty.from_standard(*variates.T)
    treat = (draws[:, :m] < scenario.treat_prob).astype(np.int8).reshape(-1)
    uniforms = draws[:, m:].reshape(-1)
    cluster = np.repeat(np.arange(n_clusters, dtype=np.int64), m)
    # one batched inversion for the whole dataset (root finding dominates
    # generation cost for the mixture baselines), of only the targets below
    # H0(censor_time), which may overflow to inf: the others are censored
    # whatever their root, which a mixture cannot find for a huge target
    # a Gamma draw of a small shape can underflow to a frailty of exactly 0,
    # whose limit is no hazard at all: target +inf, so its subjects are
    # censored
    alpha = np.repeat(frailties, m)
    zero = alpha == 0.0
    target = _targets(np.where(zero, 1.0, alpha), treat, scenario.beta, uniforms)
    target[zero] = np.inf
    with np.errstate(over="ignore"):
        early = target < scenario.baseline.cumulative_hazard(scenario.censor_time)
    latent = np.full(target.shape, np.inf)
    # at a large positive beta a root may underflow to 0, no valid time: it
    # is raised to the smallest positive double
    latent[early] = np.maximum(scenario.baseline.inverse_cumulative_hazard(target[early]),
                               np.nextafter(0.0, 1.0))
    time = np.minimum(latent, scenario.censor_time)
    event = (latent < scenario.censor_time).astype(np.int8)
    return ClusteredDataset(
        cluster=cluster,
        time=time,
        event=event,
        treat=treat,
        scenario_id=scenario.id,
        seed=int(seed),
    )


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


def _convert(values: tuple[str, ...], dtype) -> tuple[np.ndarray, Exception | None]:
    """values as an array of dtype, cut before the first value that does not
    convert, and that value's error (None when all convert). Should only
    the bulk conversion fail, the cut is at the start, so a bad column is
    never taken for a good one."""
    try:
        return np.array(values, dtype=dtype), None
    except (ValueError, OverflowError) as exc:
        error = exc
    for i, value in enumerate(values):
        try:
            np.array(value, dtype=dtype)
        except (ValueError, OverflowError) as exc:
            return np.array(values[:i], dtype=dtype), exc
    return np.array((), dtype=dtype), error


def read_dataset_csv(path: str | Path) -> ClusteredDataset:
    """Parse a dataset CSV, mapping cluster labels to codes in order of appearance.

    The columns are converted and checked in bulk. A row breaks a rule when
    it does not have 4 fields, a value does not convert, time is not finite
    and positive, or event or treat is not 0 or 1; the error names the
    first such line, counting blank lines.
    """
    path = Path(path)
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
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    if not rows:
        raise DataError(f"{path}: no data rows")
    # each rule's first breach as (row index, message); the rows before the
    # first one of too few or too many fields, and before the first value
    # that does not convert, are checked for the others
    breaches = []
    n = next((i for i, (_, row) in enumerate(rows) if len(row) != 4), len(rows))
    if n < len(rows):
        breaches.append((n, f"expected 4 fields, got {len(rows[n][1])}"))
    labels, *fields = zip(*(row for _, row in rows[:n])) if n else [()] * 4
    columns = []
    for values, dtype in zip(fields, (float, np.int64, np.int64)):
        column, error = _convert(values, dtype)
        if error is not None:
            breaches.append((len(column), str(error)))
        columns.append(column)
    m = min(len(column) for column in columns)
    time, event, treat = (column[:m] for column in columns)
    for k, (bad, rule) in enumerate([
        (~(np.isfinite(time) & (time > 0)), "time must be positive"),
        ((event != 0) & (event != 1), "event must be 0 or 1"),
        ((treat != 0) & (treat != 1), "treat must be 0 or 1"),
    ], start=1):
        if bad.any():
            i = int(bad.argmax())
            breaches.append((i, f"{rule}, got {rows[i][1][k]}"))
    if breaches:
        i, message = min(breaches, key=lambda breach: breach[0])
        raise DataError(f"{path}: line {rows[i][0]}: {message}")
    codes: dict[str, int] = {}
    cluster = [codes.setdefault(label.strip(), len(codes)) for label in labels]
    return ClusteredDataset(
        cluster=np.asarray(cluster, dtype=np.int64),
        time=time,
        event=event.astype(np.int8),
        treat=treat.astype(np.int8),
        cluster_labels=tuple(codes),
    )


def write_manifest(path: str | Path, scenario: Scenario, seed: int) -> None:
    payload = {
        "scenario_id": scenario.id,
        "seed": int(seed),
        "baseline": {"kind": scenario.baseline.kind, **asdict(scenario.baseline)},
        "frailty": {"family": scenario.frailty.family.value,
                    "variance": scenario.frailty.variance},
        "n_clusters": scenario.n_clusters,
        "cluster_size": scenario.cluster_size,
        "beta": scenario.beta,
        "treat_prob": scenario.treat_prob,
        "censor_time": scenario.censor_time,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
