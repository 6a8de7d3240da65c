"""Marginal maximum likelihood for shared-frailty survival models.

Baselines: exponential, Weibull, Gompertz, or a Royston-Parmar restricted
cubic spline of log time (df in {3, 5, 9}). Frailty: Gamma (closed-form
marginal likelihood) or log-Normal (adaptive Gauss-Hermite marginalization).
``_cluster_terms`` maps a frailty family to its kernel, log E[A^D e^(-A V)]
with its derivatives, for the likelihood, the fitted LLE and
``estimands.marginal_survival`` alike.

Optimization happens on a transformed scale where every parameter is free:
log rate, log shape, log frailty variance; Gompertz slope, spline
coefficients, and beta unchanged. One pass over the rows and clusters
(``_loglik_core``) gives the likelihood with its analytic score and
observed information on that scale: per row d log h and d log H and their
second derivatives (closed forms, or the spline basis B and its derivative
Bd), and per cluster the first and second derivatives, all closed, of the
Gamma closed form or of the Gauss-Hermite sum in the cluster's cumulative
hazard V and the log frailty variance; the information follows by the
chain rule through V. The fit takes Newton steps in Levenberg-Marquardt
form on them (``_newton``).

The rows are held sorted by (cluster, time, arm, event), and each per-row
array with one value per parameter (the design, d log H, the spline
columns) as a C-contiguous (parameters, rows) array (``_Prepared``): the
rows' part of the information is then one product (d log H * w) @ d log
H', and each cluster's sums run over one contiguous run of rows. A
dataset is checked and sorted once for all its models (``prepare_dataset``),
and each baseline's rows, the rp basis among them, are built once and
shared by its two frailty families. Every model of a dataset but exp_gamma
starts from that dataset's exp_gamma fit (``_anchored_start``), which nests
in all of them.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .exceptions import FitSetupError
from .hazards import Exponential, FrailtyFamily, Gompertz, Weibull
from .simulate import ClusteredDataset
from .splines import ALLOWED_DF, SplineBasis, _columns, basis_eval, place_knots
from .quadrature import MAX_GH_NODES, GHRule, adaptive_gh_batch, gh_rule, lognormal_laplace

__all__ = [
    "ModelSpec",
    "ModelParams",
    "FitResult",
    "model_from_id",
    "MODEL_BASELINES",
    "gamma_marginal_loglik",
    "lognormal_marginal_loglik",
    "PreparedDataset",
    "prepare_dataset",
    "fit",
    "information_criteria",
    "unpack_params",
    "pack_params",
]

# the hazards class of each parametric baseline, whose fields are its
# natural parameters in order
_PARAMETRIC = {"exp": Exponential, "wei": Weibull, "gom": Gompertz}
MODEL_BASELINES = (*_PARAMETRIC, "rp")
# the frailty families a model can fit, in all_model_ids() order
_FITTED_FRAILTIES = (FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL)
# the positive parameters, fitted as their logs
_POSITIVE = ("rate", "shape", "frailty_var")

# a run ends when its Newton decrement g'H^-1 g is at most this times
# 1 + |loglik|: the loglik is then within half of it of the quadratic
# model's maximum. A shifted step that predicts no more gain than that ends
# it too.
_DECREMENT = 1e-12
_DECREMENT_STOP = f"Newton decrement at most {_DECREMENT:g}*(1+|loglik|)"
_GAIN_STOP = "a step predicted a gain below half the decrement tolerance"
# the smallest ratio of actual to predicted fall that takes a Newton step,
# and the least Levenberg-Marquardt shift after a rejected step, relative
# to the Hessian's largest diagonal entry
_MIN_RATIO = 1e-4
_LAM_FLOOR = 1e-3
# fit's default step cap, at which a dataset's anchor is fitted
_MAX_ITER = 500
# the largest log variance a log-Normal fit starts from (_anchored_start)
_LOG_NORMAL_START_LOG_VAR = float(np.log(10.0))
# the mean rows per cluster from which _Prepared.cluster_sums takes
# np.add.reduceat over the cluster starts instead of np.bincount
_REDUCEAT_SIZE = 8
# elements in one (nodes, block) array of the log-Normal quadrature, 256 KB
# of doubles, within a 2 MB L2 cache per core. The study's own calls fit in
# one block: the 3,546 calls of fit --model all (seed 501), the 10 mc_short
# scenarios at --nsim 2 and the rep-0 grid reach 11,250 elements (750
# clusters x 15 nodes) at most, and without the blocks and the kept work
# arrays (_work) calls of those shapes ran as fast or faster (one grid rep
# at 1 worker: 4.73-5.83 s, against 4.58-5.13 s with them). They are kept
# for fits of many clusters: without them an order-2 call was 43% slower at
# 2,000 clusters, 71% at 20,000, and 12% at 100,000, where it also took 3x
# the memory (2-CPU host)
_BLOCK_ELEMENTS = 32768
# each thread's work arrays of _BLOCK_ELEMENTS doubles for _lognormal_clusters
_work = threading.local()


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: baseline family, frailty family, spline df, GH nodes."""

    baseline: str
    frailty: FrailtyFamily
    df: int | None = None
    gh_nodes: int = 15

    def __post_init__(self):
        object.__setattr__(self, "frailty", FrailtyFamily(self.frailty))
        if self.baseline not in MODEL_BASELINES:
            raise ValueError(
                f"baseline must be one of {MODEL_BASELINES}, got {self.baseline!r}"
            )
        if self.frailty not in _FITTED_FRAILTIES:
            raise ValueError("fit frailty must be gamma or lognormal")
        if self.baseline == "rp":
            if self.df not in ALLOWED_DF:
                raise ValueError(f"rp baseline needs df in {ALLOWED_DF}, got {self.df}")
        elif self.df is not None:
            raise ValueError("df applies only to the rp baseline")
        if not 7 <= self.gh_nodes <= MAX_GH_NODES:
            raise ValueError(f"gh_nodes must be in [7, {MAX_GH_NODES}], got {self.gh_nodes}")

    @property
    def id(self) -> str:
        tag = f"rp{self.df}" if self.baseline == "rp" else self.baseline
        return f"{tag}_{self.frailty.value}"

    def natural_names(self) -> list[str]:
        """The parameters: the fields of the baseline's hazards class, or
        the spline coefficients s0, ..., s{df}, then beta and frailty_var."""
        if self.baseline == "rp":
            head = [f"s{k}" for k in range(self.df + 1)]
        else:
            head = [f.name for f in fields(_PARAMETRIC[self.baseline])]
        return head + ["beta", "frailty_var"]

    def param_names(self) -> list[str]:
        """The entries of the transformed vector: log_ before each positive
        parameter."""
        return [f"log_{name}" if name in _POSITIVE else name for name in self.natural_names()]

    # the likelihood reads these on every evaluation, so each is computed
    # once per spec
    @functools.cached_property
    def n_params(self) -> int:
        return len(self.natural_names())

    @functools.cached_property
    def n_baseline_params(self) -> int:
        return self.n_params - 2

    @functools.cached_property
    def log_scale(self) -> np.ndarray:
        """Which entries of the transformed vector are logs of their
        natural values: those of param_names() named log_*. Read-only."""
        out = np.array([name in _POSITIVE for name in self.natural_names()])
        out.setflags(write=False)
        return out


def model_from_id(model_id: str) -> ModelSpec:
    """Parse ids like 'exp_gamma' or 'rp5_lognormal'."""
    parts = model_id.split("_", 1)
    if len(parts) != 2:
        raise ValueError(f"model id must look like 'exp_gamma', got {model_id!r}")
    base, frail = parts
    df = None
    if base.startswith("rp") and base != "rp":
        try:
            df = int(base[2:])
        except ValueError:
            raise ValueError(f"unknown baseline tag {base!r} in model id {model_id!r}") from None
        base = "rp"
    try:
        return ModelSpec(baseline=base, frailty=FrailtyFamily(frail), df=df)
    except ValueError as exc:
        raise ValueError(f"invalid model id {model_id!r}: {exc}") from None


def all_model_ids() -> list[str]:
    bases = (*_PARAMETRIC, *(f"rp{df}" for df in ALLOWED_DF))
    return [f"{base}_{frail.value}" for frail in _FITTED_FRAILTIES for base in bases]


@dataclass(frozen=True)
class ModelParams:
    """Natural-scale parameters of one model.

    baseline holds (rate,), (rate, shape), (rate, gamma), or the df+1 spline
    coefficients; frailty_var is theta (Gamma) or sigma^2 of the log frailty.
    """

    spec: ModelSpec
    baseline: np.ndarray
    beta: float
    frailty_var: float
    basis: SplineBasis | None = None

    def __post_init__(self):
        arr = np.asarray(self.baseline, dtype=float)
        object.__setattr__(self, "baseline", arr)
        if arr.shape != (self.spec.n_baseline_params,):
            raise ValueError(
                f"baseline must have {self.spec.n_baseline_params} entries, got {arr.shape}"
            )
        if not self.frailty_var > 0:
            raise ValueError(f"frailty_var must be positive, got {self.frailty_var}")
        if self.spec.baseline == "rp" and self.basis is None:
            raise ValueError("rp parameters need a SplineBasis")

    def natural_vector(self) -> np.ndarray:
        """Natural-scale values aligned with ModelSpec.natural_names()."""
        return np.array(list(self.baseline) + [self.beta, self.frailty_var],
                        dtype=float)


def pack_params(params: ModelParams) -> np.ndarray:
    """Natural-scale ModelParams -> raw transformed vector: the log of each
    entry that ModelSpec.log_scale marks, the others as they are."""
    vec = params.natural_vector()
    log_scale = params.spec.log_scale
    vec[log_scale] = np.log(vec[log_scale])
    return vec


def unpack_params(
    spec: ModelSpec, vec: np.ndarray, basis: SplineBasis | None = None
) -> ModelParams:
    """Raw transformed vector -> natural-scale ModelParams."""
    vec = np.array(vec, dtype=float)
    if vec.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {vec.shape}")
    log_scale = spec.log_scale
    vec[log_scale] = np.exp(vec[log_scale])
    nb = spec.n_baseline_params
    return ModelParams(spec=spec, baseline=vec[:nb], beta=float(vec[nb]),
                       frailty_var=float(vec[nb + 1]), basis=basis)


def _expm1_over(v: np.ndarray) -> np.ndarray:
    """expm1(v)/v with the v -> 0 limit handled."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 1e-8
    safe = np.where(small, 1.0, v)
    out = np.where(small, 1.0 + v / 2.0, np.expm1(safe) / safe)
    return out


@dataclass
class PreparedDataset:
    """Rows for the likelihood in cluster order, with what every model
    fitted to them reads: prepare_dataset builds them once per dataset, and
    fit takes them in place of the dataset.

    Each cluster is one run of rows, its code renumbered 0, 1, ... in that
    order; a code without rows, which adds exactly 0 to the log-likelihood,
    is dropped. events_per_cluster holds each cluster's event count D as an
    integer, which indexes the Gamma kernel's running sums, and d_range 0,
    1, ..., max D. starts, each cluster's first row, is None below a mean
    cluster size of _REDUCEAT_SIZE (_Prepared.cluster_sums). splines keeps
    the rp basis of each df for the other frailty family (_prepare). anchor
    keeps the dataset's exp_gamma fit, from _starting_point at the default
    max_iter, from which fit starts every other model (_anchor): the first
    fit that needs it makes it.
    """

    t: np.ndarray
    logt: np.ndarray
    x: np.ndarray
    d: np.ndarray
    cluster: np.ndarray
    n_clusters: int
    events_per_cluster: np.ndarray
    d_range: np.ndarray
    starts: np.ndarray | None
    splines: dict = field(default_factory=dict, repr=False)
    anchor: FitResult | None = field(default=None, repr=False)


def _cluster_rows(t: np.ndarray, logt: np.ndarray, x: np.ndarray, d: np.ndarray,
                  cluster: np.ndarray) -> PreparedDataset:
    """The rows at times t (logs logt), arms x and event flags d, whose
    cluster codes are already in nondecreasing order."""
    first = np.empty(cluster.size, dtype=bool)
    first[:1] = True
    np.not_equal(cluster[1:], cluster[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    n_clusters = starts.size
    # sorted codes are 0, ..., n_clusters - 1 unless some code has no rows
    if n_clusters and (cluster[0] != 0 or cluster[-1] != n_clusters - 1):
        cluster = np.cumsum(first) - 1
    events = np.bincount(cluster[d], minlength=n_clusters)
    return PreparedDataset(
        t=t,
        logt=logt,
        x=x,
        d=d,
        cluster=cluster,
        n_clusters=n_clusters,
        events_per_cluster=events,
        d_range=np.arange(events.max(initial=0) + 1, dtype=float),
        starts=starts if t.size >= _REDUCEAT_SIZE * n_clusters else None,
    )


def _sorted_rows(data: ClusteredDataset) -> PreparedDataset:
    """The rows of a dataset sorted by (cluster, time, arm, event). Rows
    equal in all four are equal, so neither the order of the rows nor any
    sum over them depends on the order of the input within a cluster."""
    t = np.asarray(data.time, dtype=float)
    if (t <= 0).any():
        raise FitSetupError("all times must be positive")
    d = np.asarray(data.event, dtype=bool)
    x = np.asarray(data.treat, dtype=float)
    cluster = np.asarray(data.cluster, dtype=np.int64)
    order = np.lexsort((d, x, t, cluster))
    t = t[order]
    return _cluster_rows(t, np.log(t), x[order], d[order], cluster[order])


def prepare_dataset(data: ClusteredDataset) -> PreparedDataset:
    """A dataset's rows, checked and sorted once for the fits of all its
    models. Every time must be positive, and each arm must have an event,
    without which the likelihood rises without bound as beta goes to -inf
    or +inf; a dataset that fails raises FitSetupError."""
    rows = _sorted_rows(data)
    if not rows.d.any():
        raise FitSetupError("cannot fit with zero events")
    for value, arm in ((0.0, "untreated"), (1.0, "treated")):
        if not rows.d[rows.x == value].any():
            raise FitSetupError(f"cannot fit with zero events in the {arm} arm")
    return rows


@dataclass
class _Prepared:
    """A model's rows on the optimizer scale of its fit: the dataset's rows
    (rows) and what its baseline adds to them, which do not change across
    iterations. Every per-row array of more than one value per row is
    stored as parameter rows over data columns: a C-contiguous (p, n)
    array.

    For the rp baseline, B and Bd hold orthogonalized basis columns (as
    rows): the raw columns are centered and QR-rotated so the internal
    design has orthogonal columns of unit root-mean-square, and the
    optimizer works on their coefficients. Raw truncated-power columns with
    nearby knots are nearly collinear. Newton steps do not depend on the
    basis in exact arithmetic, but the shift of a rejected step and the
    floating-point solves do: on the raw columns (to_raw the identity, the
    collinearity check kept), the 540 rp fits of the study grid at rep 0
    (seed 20240901) kept their flags, estimates within 4.4e-5 SE and
    logliks within 3.1e-12 relative, but took 15.0 evaluations a fit (at
    most 47) against 9.1 (at most 22) and 13.6 Newton steps against 7.4,
    and the median condition number of the observed information rose from
    1.3e3 to 1.8e7.

    to_raw maps an optimizer-scale vector to the raw transformed vector of
    pack_params and unpack_params: the identity but for the rp coefficient
    block [[1, -center T^-1], [0, T^-1]], with T the QR's R / sqrt(n).

    design is the constant part of d log H / d(baseline, beta), one column
    per row: [1, x] (exp), [1, B, x] (rp), and [1, z, x] for wei and gom,
    whose middle row varies with the parameters and is built from z = log t
    (wei) or t (gom). event_design is its sum over the event rows,
    event_logt that of log t, and event_Bd the columns of Bd at the events.

    cluster_sums sums each cluster's rows. It takes np.add.reduceat over the
    cluster starts when there are any, and otherwise np.bincount over a
    (row of design, cluster) cell index (cells), built on its first use:
    reduceat's cost grows with the number of clusters, and bincount's with
    the number of entries. The dV of k - 1 parameter rows at 3,000 rows,
    bincount / reduceat in microseconds (best of 7 x 200 calls, 2-CPU host):

        mean cluster size      2       5       8      10      50     150
        k - 1 = 3          16/67   18/29   20/20   21/17    30/6    33/6
        k - 1 = 11        55/237  60/103   69/67   73/57  106/22  116/16

    V alone, one row, reads 6/22 at size 2 and 11/3 at size 150. The study's
    20 x 150 datasets take reduceat and its 750 x 2 ones bincount.
    """

    baseline: str
    rows: PreparedDataset
    basis: SplineBasis | None
    B: np.ndarray | None
    Bd: np.ndarray | None
    to_raw: np.ndarray
    design: np.ndarray
    event_design: np.ndarray
    event_logt: float
    event_Bd: np.ndarray | None

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """The (row of design, cluster) cell of each entry of a (k - 1, n)
        array, flattened: row * n_clusters + cluster."""
        return (np.arange(self.design.shape[0])[:, None] * self.rows.n_clusters
                + self.rows.cluster).ravel()

    def cluster_sums(self, values: np.ndarray) -> np.ndarray:
        """The sum over each cluster's rows of values, shape (n,) -> (G,),
        or (k - 1, n) -> (k - 1, G) for as many parameter rows as design."""
        rows = self.rows
        if rows.starts is not None:
            return np.add.reduceat(values, rows.starts, axis=-1)
        if values.ndim == 1:
            return np.bincount(rows.cluster, weights=values, minlength=rows.n_clusters)
        return np.bincount(self.cells, weights=values.ravel(),
                           minlength=values.shape[0] * rows.n_clusters
                           ).reshape(-1, rows.n_clusters)


def _model_rows(baseline: str, rows: PreparedDataset, basis: SplineBasis | None,
                to_raw: np.ndarray, B: np.ndarray | None = None,
                Bd: np.ndarray | None = None) -> _Prepared:
    """The _Prepared of a baseline on rows, with its constant design and
    event-row sums. For rp, B and Bd are the basis columns and their
    derivatives as (df, n) rows on the optimizer scale; by default those of
    basis at rows.logt, mapped by to_raw, which is square in the parameters."""
    if basis is not None and B is None:
        nb = to_raw.shape[0] - 2
        coefs = to_raw[1:nb, 1:nb].T
        B = coefs @ _columns(basis, rows.logt, derivative=False) + to_raw[0, 1:nb, None]
        Bd = coefs @ _columns(basis, rows.logt, derivative=True)
    middle = {"exp": (), "wei": (rows.logt,), "gom": (rows.t,), "rp": (B,)}[baseline]
    design = np.vstack((np.ones_like(rows.t), *middle, rows.x))
    return _Prepared(
        baseline=baseline,
        rows=rows,
        basis=basis,
        B=B,
        Bd=Bd,
        to_raw=to_raw,
        design=design,
        event_design=design[:, rows.d].sum(axis=1),
        event_logt=float(rows.logt[rows.d].sum()),
        event_Bd=None if Bd is None else Bd[:, rows.d],
    )


def _spline_basis(rows: PreparedDataset, df: int):
    """The rp basis of rows at df as (basis, to_raw, B, Bd): knots at the
    centiles of the event times, and the columns orthogonalized by a QR on
    the sorted rows."""
    basis = place_knots(rows.logt[rows.d], df)
    # the QR takes the raw columns as (n, df); the derivatives are
    # mapped as rows
    raw_B = basis_eval(basis, rows.logt)
    raw_Bd = _columns(basis, rows.logt, derivative=True)
    center = raw_B.mean(axis=0)
    root_n = np.sqrt(rows.t.size)
    q, r = np.linalg.qr(raw_B - center)
    if (np.abs(np.diag(r)) / root_n < 1e-10).any():
        raise FitSetupError("spline basis columns are numerically collinear")
    transform = r / root_n
    B = np.ascontiguousarray(q.T * root_n)
    # T^-T Bd by substitution, one row at a time: T is upper triangular
    # and has at most 9 columns
    Bd = np.empty_like(raw_Bd)
    for j in range(df):
        Bd[j] = (raw_Bd[j] - transform[:j, j] @ Bd[:j]) / transform[j, j]
    # T's LU makes no row swaps, so this inverse is a back substitution
    inverse = np.linalg.inv(transform)
    to_raw = np.eye(df + 3)
    to_raw[1:df + 1, 1:df + 1] = inverse
    to_raw[0, 1:df + 1] = -center @ inverse
    # the fits of both frailty families keep it
    to_raw.setflags(write=False)
    return basis, to_raw, B, Bd


def _prepare(spec: ModelSpec, data: ClusteredDataset | PreparedDataset) -> _Prepared:
    """The _Prepared of a model on a dataset, which is prepared here unless
    it already is. An rp basis is built once per df and kept in the
    dataset's splines; a collinear one raises FitSetupError for its df
    alone."""
    rows = data if isinstance(data, PreparedDataset) else prepare_dataset(data)
    if spec.baseline != "rp":
        return _model_rows(spec.baseline, rows, None, np.eye(spec.n_params))
    if spec.df not in rows.splines:
        rows.splines[spec.df] = _spline_basis(rows, spec.df)
    return _model_rows(spec.baseline, rows, *rows.splines[spec.df])


def _grid_prepared(baseline: str, basis: SplineBasis | None, to_raw: np.ndarray,
                   t: np.ndarray, x: np.ndarray) -> _Prepared:
    """Rows at positive times t and arms x, each a censored cluster of its
    own, on the optimizer scale of a fit of baseline with basis and to_raw,
    of either frailty family: _log_h_and_H on it at the fit's trans gives
    H(t, x) and d log H / d trans."""
    n = t.size
    rows = _cluster_rows(t, np.log(t), np.asarray(x, dtype=float),
                         np.zeros(n, dtype=bool), np.arange(n))
    return _model_rows(baseline, rows, basis, to_raw)


def _dlog_expm1_over(v: np.ndarray) -> np.ndarray:
    """d/dv log(expm1(v)/v) = 1/(1 - e^-v) - 1/v, with the v -> 0 limit handled."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 1e-4
    safe = np.where(small, 1.0, v)
    return np.where(small, 0.5 + v / 12.0, -1.0 / np.expm1(-safe) - 1.0 / safe)


def _d2log_expm1_over(v: np.ndarray) -> np.ndarray:
    """d2/dv2 log(expm1(v)/v) = 1/v^2 - 1/(4 sinh^2(v/2)); below |v| = 0.05,
    where that difference cancels, its series 1/12 - v^2/240 + v^4/6048."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 0.05
    safe = np.where(small, 1.0, v)
    v2 = v * v
    return np.where(small, 1.0 / 12.0 - v2 / 240.0 + v2 * v2 / 6048.0,
                    1.0 / (safe * safe) - 0.25 / np.sinh(0.5 * safe) ** 2)


def _log_h_and_H(prep: _Prepared, vec: np.ndarray):
    """The sum of log h over the event rows, the row-wise conditional
    cumulative hazard H, the sum of d log h over the event rows, and
    d log H as a C-contiguous (nb + 1, n) array, one row per derivative in
    vec[:nb + 1] (prep's baseline and beta) and one column per data row. Its
    first row, d log H / d vec[0], is 1 for every baseline.

    The log h sum may be -inf (flagging a nonpositive RP hazard slope at an
    event) or NaN; H may overflow to inf. Both are handled by the callers.
    d log H may be prep.design itself, which callers must not modify. The
    caller enters np.errstate.
    """
    nb = vec.size - 2
    theta = vec[:nb + 1]
    rows = prep.rows
    if prep.baseline == "exp":
        log_h_sum = prep.event_design @ theta
        H = np.exp(vec[0] + rows.x * vec[nb]) * rows.t
        dlog_h_sum, dlog_H = prep.event_design, prep.design
    elif prep.baseline == "wei":
        # log h = log rate + log shape + (shape - 1) log t + x beta
        shape = np.exp(vec[1])
        log_h_sum = (prep.event_design @ [vec[0], shape - 1.0, vec[nb]]
                     + prep.event_design[0] * vec[1])
        H = np.exp(vec[0] + shape * rows.logt + rows.x * vec[nb])
        dlog_h_sum = prep.event_design * [1.0, shape, 1.0] + [0.0, prep.event_design[0], 0.0]
        dlog_H = prep.design.copy()
        dlog_H[1] *= shape
    elif prep.baseline == "gom":
        log_h_sum = prep.event_design @ theta
        H = np.exp(vec[0] + rows.x * vec[nb]) * rows.t * _expm1_over(vec[1] * rows.t)
        dlog_h_sum = prep.event_design
        dlog_H = prep.design.copy()
        dlog_H[1] *= _dlog_expm1_over(vec[1] * rows.t)
    else:
        sp = vec[1:nb] @ prep.event_Bd
        log_sp = np.where(sp > 0, np.log(np.where(sp > 0, sp, 1.0)), -np.inf)
        log_h_sum = log_sp.sum() - prep.event_logt + prep.event_design @ theta
        H = np.exp(theta @ prep.design)
        dlog_h_sum = prep.event_design.copy()
        dlog_h_sum[1:nb] += prep.event_Bd @ (1.0 / sp)
        dlog_H = prep.design
    return float(log_h_sum), H, dlog_h_sum, dlog_H


def _lognormal_clusters(D, V: np.ndarray, var: float, rule: GHRule, mean: float = 0.0,
                        order: int = 1):
    """Log-Normal cluster terms by adaptive Gauss-Hermite: for each cluster,
    the log of the mean of exp(eta*D - e^eta*V) over eta ~ N(mean, var),
    given its event count D (an array, or 0) and cumulative hazard V. Order
    0 returns (terms,); order 1 adds their exact derivatives g_V in V and
    g_u in u = log var, and order 2 also g_VV, g_Vu and g_uu. The caller
    enters np.errstate.

    The derivatives are those of the quadrature sum itself, not of the
    integral it approximates. The nodes are eta_j = m + t_j, t_j = s*z_j,
    around the mode m of l(eta) = eta*D - e^eta*V - (eta - mean)^2/(2 var)
    - log(2 pi var)/2, at scale s = sqrt(2 var/(1 + w)), where w = var*V*e^m
    is the Wright omega of lognormal_laplace. The sum is log s + l(m) + log
    sum_j q_j e^R_j, with q_j the rule's weights and R_j = l(eta_j) - l(m)
    + z_j^2 the remainder adaptive_gh_batch integrates, here (quad t +
    slope) t - A expm1(t) with quad = 1/s^2 - 1/(2 var), slope = D - (m -
    mean)/var and A = e^m*V, so that the rounding of the computed mode
    stays in the sum and the loglik is smooth in the parameters; the
    normalised terms are the posterior weights p_j. At the exact mode
    l'(m) = 0 and -l''(m) = 2/s^2, so R_j = -A psi(t_j) with A = w/var and
    psi(t) = e^t - 1 - t - t^2/2, whose derivatives are taken. The sum's
    first derivatives are (log s)_a + l_a(m) + E_p[R_a], and its second
    (log s)_ab + l_ab(m) + l_a'(m) m_b + E_p[R_ab] + Cov_p(R_a, R_b). Every
    term is small where the frailty variance is, so g_u keeps its relative
    precision as var -> 0, where the derivatives of l(eta_j) would be a
    difference of O(1) terms.

    m and s move with V and u through w, the Wright omega of log(var*V) +
    mean + var*D, whose first and second derivatives in that argument are
    w/(1 + w) and w/(1 + w)^3; w/V enters as var*e^m, so nothing divides
    by V.

    The quadrature runs on blocks of at most _BLOCK_ELEMENTS // rule.n
    clusters, each (nodes, block) array 256 KB, within one core's L2 cache,
    in work arrays that each thread keeps (_work): one at order 0 and four
    otherwise, made on first use. The study's calls fit in one block; a fit
    of thousands of clusters gains from both, since temporaries made per
    call above the C library's trim threshold go back to the kernel and the
    next call faults them in afresh (_BLOCK_ELEMENTS). Each column is
    computed as on the whole batch, so the block size changes no value.
    """
    mode, curv = lognormal_laplace(D, V, mean, var)
    dev = mode - mean
    # e^m * V as one exponential: 0, not inf * 0, where V underflowed
    A_m = np.exp(mode + np.log(V))
    slope = D - dev / var
    quad = 0.5 * curv - 0.5 / var
    n, nodes = mode.size, rule.n
    width = max(1, _BLOCK_ELEMENTS // nodes)
    work = _work.__dict__.setdefault("arrays", [])
    while len(work) < (4 if order else 1):
        work.append(np.empty(_BLOCK_ELEMENTS))
    logq = np.empty(n)
    # the posterior means of psi and psi'(t) t, and at order 2 that of
    # psi''(t) t^2 and the (co)variances of the first two
    if order:
        m0, m1 = np.empty((2, n))
    if order == 2:
        m2, v00, v01, v11 = np.empty((4, n))
    for start in range(0, n, width):
        cols = slice(start, start + width)
        size = nodes * min(width, n - start)
        W, *kept = (a[:size].reshape(nodes, -1) for a in work[:4 if order else 1])
        Y, T2, E = kept or (None,) * 3
        offsets = []

        def log_f(t: np.ndarray) -> np.ndarray:
            # R = (quad t + slope) t - A expm1(t) into W; at order 0
            # expm1(t) and A expm1(t) go over the offsets, which log_f owns
            np.multiply(quad[cols], t, out=W)
            np.add(W, slope[cols], out=W)
            np.multiply(W, t, out=W)
            if order:
                offsets.append(t)
                np.multiply(t, t, out=T2)
                em1, product = np.expm1(t, out=E), Y
            else:
                em1 = product = np.expm1(t, out=t)
            return np.subtract(W, np.multiply(A_m[cols], em1, out=product), out=W)

        # W holds e^R at the nodes until it is normalised below
        logq[cols] = adaptive_gh_batch(log_f, rule, (mode[cols], curv[cols]))[0]
        if not order:
            continue
        t = offsets.pop()
        W *= rule.weights[:, None]
        W /= W.sum(axis=0)

        def mean_of(x: np.ndarray) -> np.ndarray:
            return np.multiply(W, x, out=Y).sum(axis=0)

        if order == 2:
            m2[cols] = mean_of(np.multiply(E, T2, out=Y))
        # R = -A psi(t) with d t = (log s)_a t, so R_a = -(A_a psi + A (log
        # s)_a psi'(t) t): each derivative of R is a per-cluster combination
        # of psi, psi'(t) t and psi''(t) t^2, and its posterior moments are
        # those of these three node arrays. E turns into expm1(t) - t, then
        # psi'(t) t; T2 into psi
        E -= t
        T2 *= 0.5
        np.subtract(E, T2, out=T2)
        E *= t
        m0[cols], m1[cols] = mean_of(T2), mean_of(E)
        if order == 2:
            T2 -= m0[cols]
            E -= m1[cols]
            v00[cols] = mean_of(np.multiply(T2, T2, out=Y))
            v01[cols] = mean_of(np.multiply(T2, E, out=Y))
            v11[cols] = mean_of(np.multiply(E, E, out=Y))
    logs = logq + (mode * D - A_m - dev * dev / (2.0 * var) - 0.5 * np.log(2.0 * np.pi * var))
    if not order:
        return (logs,)
    w = var * curv - 1.0
    one_w = 1.0 + w
    var_D = var * D
    # d/du of omega's argument
    arg_u = 1.0 + var_D
    e_mode = np.exp(mode)
    # w/V = var e^m, which at V = 0 with var*D > 709 overflows: the
    # derivatives are then not finite, and the point is infeasible
    w_V = var * e_mode / one_w
    w_u = w / one_w * arg_u
    m_u = var_D - w_u
    # log s = (log 2 + u - log(1 + w)) / 2
    log_s_V = -0.5 * w_V / one_w
    log_s_u = 0.5 - 0.5 * w_u / one_w
    A = w / var
    A_V = e_mode / one_w
    A_u = A * dev / one_w
    B_V, B_u = A * log_s_V, A * log_s_u
    # l_V(m) = -e^m, l_u(m) = (m - mean)^2/(2 var) - 1/2
    g_V = log_s_V - e_mode - (A_V * m0 + B_V * m1)
    g_u = dev * dev / (2.0 * var) - 0.5 * w_u / one_w - (A_u * m0 + B_u * m1)
    if order == 1:
        return logs, g_V, g_u
    cube = one_w * one_w * one_w
    w_VV = -var * e_mode * w_V * (2.0 + w) / (one_w * one_w)
    w_Vu = var * e_mode * arg_u / cube
    w_uu = w * arg_u * arg_u / cube + w / one_w * var_D
    log_s_VV = -0.5 * (w_VV - w_V * w_V / one_w) / one_w
    log_s_Vu = -0.5 * (w_Vu - w_V * w_u / one_w) / one_w
    log_s_uu = -0.5 * (w_uu - w_u * w_u / one_w) / one_w
    A_VV = -e_mode * w_V * (2.0 + w) / (one_w * one_w)
    A_Vu = e_mode * (m_u - w_u / one_w) / one_w
    A_uu = (A_u * dev + A * (m_u - dev * w_u / one_w)) / one_w

    def second(A_ab, A_a, A_b, B_a, B_b, ls_a, ls_b, ls_ab):
        """E_p[R_ab] + Cov_p(R_a, R_b)."""
        return (A_a * A_b * v00 + (A_a * B_b + A_b * B_a) * v01 + B_a * B_b * v11
                - A_ab * m0 - (A_a * ls_b + A_b * ls_a + A * (ls_ab + ls_a * ls_b)) * m1
                - B_a * ls_b * m2)

    # l_VV = 0 and l_V' = -e^m; l_uu = -(m - mean)^2/(2 var) and l_u' =
    # (m - mean)/var
    g_VV = (log_s_VV + e_mode * w_V
            + second(A_VV, A_V, A_V, B_V, B_V, log_s_V, log_s_V, log_s_VV))
    g_Vu = (log_s_Vu - e_mode * m_u
            + second(A_Vu, A_V, A_u, B_V, B_u, log_s_V, log_s_u, log_s_Vu))
    g_uu = (log_s_uu + dev * (m_u - 0.5 * dev) / var
            + second(A_uu, A_u, A_u, B_u, B_u, log_s_u, log_s_u, log_s_uu))
    return logs, g_V, g_u, g_VV, g_Vu, g_uu


def _log1p_gap(x: np.ndarray) -> np.ndarray:
    """1/(1 + x) - log1p(x)/x for an array x >= 0; below x = 0.01, where
    that difference cancels, its series -x/2 + 2x^2/3 - 3x^3/4 + ... An
    infinite x gives NaN, so the caller enters np.errstate."""
    small = x < 0.01
    safe = np.where(small, 1.0, x)
    out = 1.0 / (1.0 + safe) - np.log1p(safe) / safe
    if small.any():
        x = x[small]
        out[small] = x * (-1.0 / 2.0 + x * (2.0 / 3.0 + x * (-3.0 / 4.0 + x * (
            4.0 / 5.0 + x * (-5.0 / 6.0 + x * (6.0 / 7.0 + x * (-7.0 / 8.0 + x * 8.0 / 9.0)))))))
    return out


def _gamma_clusters(D, d_range: np.ndarray, V: np.ndarray, var: float, order: int = 1):
    """Gamma cluster terms in closed form, given the clusters' event counts
    D (integers, or 0), d_range = 0, 1, ..., max D and their cumulative
    hazards V. Order 0 returns (terms,); order 1 adds their derivatives g_V
    in V and g_u in u = log var, and order 2 also g_VV, g_Vu and g_uu.

    g_u and g_uu are O(var) as var -> 0, while log1p(var*V)/var and V/(1 +
    var*V) are O(V); their difference is taken as V * _log1p_gap(var*V),
    so that it keeps its relative precision at a frailty variance near 0.
    """
    jv = var * d_range[:-1]
    one_jv = 1.0 + jv
    # sum_{j<D} of log(1 + j v), j v / (1 + j v) and j v / (1 + j v)^2 for
    # each cluster, the first order + 1 of them: one table of running sums
    # over j, read at D
    table = np.zeros((order + 1, d_range.size))
    np.add.accumulate((np.log1p(jv), jv / one_jv, jv / one_jv**2)[:order + 1], axis=1,
                      out=table[:, 1:])
    below_D = table.take(D, axis=1)

    var_D = var * D
    vV = var * V
    one_vV = 1.0 + vV
    # log Gamma(1/v + D) - log Gamma(1/v) + D log v telescopes to
    # sum_{j<D} log(1 + j v), which is stable for every v > 0
    cluster_logs = below_D[0] - (1.0 / var + D) * np.log1p(vV)
    if not order:
        return (cluster_logs,)
    V_gap = V * _log1p_gap(vV)
    g_V = -(1.0 + var_D) / one_vV
    g_u = below_D[1] - V_gap - var_D * V / one_vV
    if order == 1:
        return cluster_logs, g_V, g_u
    g_VV = -var * g_V / one_vV
    g_Vu = -var * (D - V) / one_vV**2
    g_uu = below_D[2] + V_gap + g_Vu * V
    return cluster_logs, g_V, g_u, g_VV, g_Vu, g_uu


def _cluster_terms(family: FrailtyFamily, D, d_range: np.ndarray, V: np.ndarray, var: float,
                   rule: GHRule, order: int = 1, mean: float = 0.0):
    """Each cluster's log E[A^D e^(-A V)], A a frailty of the family, given
    its event count D (integers, or 0) and cumulative hazard V: the one map
    from a family to its kernel. d_range (0, 1, ..., max D) serves the Gamma
    closed form; rule and mean, the log-mean of a Normal component of log A,
    the Gauss-Hermite kernel. Order 0 returns (terms,); order 1 adds g_V in
    V and g_u in log var, and order 2 also g_VV, g_Vu and g_uu."""
    if family is FrailtyFamily.GAMMA:
        return _gamma_clusters(D, d_range, V, var, order)
    return _lognormal_clusters(D, V, var, rule, mean, order)


def _loglik_core(prep: _Prepared, spec: ModelSpec, vec: np.ndarray,
                 information: bool = False):
    """Marginal log-likelihood and its score (gradient in vec), and with
    information=True also the observed information (the Hessian of the
    negated log-likelihood), all from one pass over the rows and clusters.

    A non-finite log-likelihood reads -inf, with a score and information of
    NaNs. A score or information that overflowed where a V underflowed is
    returned as it is; the optimizer treats such a point as infeasible.

    The information follows by the chain rule through each cluster's
    cumulative hazard V_i = sum of its H_r. With theta the baseline and
    beta, the theta block of the log-likelihood's Hessian is
    sum_events d2 log h + sum_r g_V H (dlog H dlog H' + d2 log H)
    + sum_i g_VV dV_i dV_i', where dV_i = sum_r H dlog H over the cluster.
    The rows' second derivatives are sparse: none for exp; e^b log t in the
    log-shape entry of both log h and log H for wei; t^2 times
    d2/dv2 log(expm1(v)/v) in log H for gom; -Bd Bd' / sp^2 in log h's
    coefficient block for rp. The log-variance row is sum_i g_Vu dV_i and
    sum_i g_uu.
    """
    k = vec.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_h_sum, H, dlog_h_sum, dlog_H = _log_h_and_H(prep, vec)
        ll = -np.inf
        if np.isfinite(log_h_sum) and np.isfinite(H).all():
            terms = _cluster_terms(spec.frailty, prep.rows.events_per_cluster,
                                   prep.rows.d_range, prep.cluster_sums(H), np.exp(vec[-1]),
                                   gh_rule(spec.gh_nodes), 2 if information else 1)
            ll = log_h_sum + float(terms[0].sum())
        # optimizer excursions (an extreme log variance, every H underflowing)
        # can leave non-finite cluster terms; they are infeasible points
        if not np.isfinite(ll):
            nan = np.full(k, np.nan)
            return (-np.inf, nan, np.full((k, k), np.nan)) if information else (-np.inf, nan)
        g_V, g_u = terms[1:3]
        w = g_V[prep.rows.cluster] * H
        score = np.empty(k)
        score[:-1] = dlog_h_sum + dlog_H @ w
        score[-1] = g_u.sum()
        if not information:
            return ll, score
        g_VV, g_Vu, g_uu = terms[3:]
        # dV_i, one column per cluster
        dV = prep.cluster_sums(dlog_H * H)
        block = (dlog_H * w) @ dlog_H.T + (dV * g_VV) @ dV.T
        nb = k - 2
        if prep.baseline == "wei":
            block[1, 1] += np.exp(vec[1]) * (prep.event_design[1] + w @ prep.rows.logt)
        elif prep.baseline == "gom":
            t = prep.rows.t
            block[1, 1] += w @ (t**2 * _d2log_expm1_over(vec[1] * t))
        elif prep.baseline == "rp":
            q = prep.event_Bd / (vec[1:nb] @ prep.event_Bd)
            block[1:nb, 1:nb] -= q @ q.T
        hess = np.empty((k, k))
        hess[:-1, :-1] = block
        hess[-1, :-1] = hess[:-1, -1] = dV @ g_Vu
        hess[-1, -1] = g_uu.sum()
    return ll, score, -hess


def _marginal_loglik(family: FrailtyFamily, spec: ModelSpec, params: ModelParams,
                     data: ClusteredDataset) -> float:
    if spec.frailty is not family:
        raise ValueError(f"spec must have {family.value} frailty")
    # the raw columns on the raw transformed scale: no rank check, no events needed
    prep = _model_rows(spec.baseline, _sorted_rows(data), params.basis, np.eye(spec.n_params))
    return _loglik_core(prep, spec, pack_params(params))[0]


def gamma_marginal_loglik(spec: ModelSpec, params: ModelParams,
                          data: ClusteredDataset) -> float:
    """Closed-form marginal log-likelihood under Gamma frailty."""
    return _marginal_loglik(FrailtyFamily.GAMMA, spec, params, data)


def lognormal_marginal_loglik(spec: ModelSpec, params: ModelParams,
                              data: ClusteredDataset) -> float:
    """Adaptive Gauss-Hermite marginal log-likelihood under log-Normal frailty."""
    return _marginal_loglik(FrailtyFamily.LOG_NORMAL, spec, params, data)


@dataclass
class FitResult:
    """Everything a downstream consumer needs from one maximum-likelihood fit.

    ``trans`` and ``cov_trans`` live on the optimizer scale (orthogonalized
    spline coefficients for rp baselines), which ``to_raw`` maps linearly to
    the raw transformed scale of ``trans_raw``; ``params`` and
    ``se_natural`` are on the reporting scales, named by
    ``spec.natural_names()``. ``cov_trans`` is M'M, M the inverse Cholesky
    factor of the Hessian at the fit, made when the run reached it; it is
    None, and the SEs are NaN, when that Hessian has none.
    ``converged`` is true exactly when the fit's one Newton run ended on
    the decrement rule, which implies a ``cov_trans``. ``n_evaluations``
    counts that run's evaluations, each one ``_loglik_core`` pass that
    gives the log-likelihood, its score and the observed information
    together, the start and every trial step included; the Hessian of the
    fit is the information of its last iterate, so it costs no further
    pass. The dataset's anchor, when the fit is the first to need it, is
    not counted: its run is exp_gamma's, whose fit reports it.
    ``n_iterations`` counts the Newton steps taken, that is the trials that
    were not rejected. ``grad_inf_norm`` is the largest absolute score
    entry at the last iterate, a diagnostic that decides nothing.
    ``message`` is why the run stopped, one of ``_newton``'s reasons:
    "Newton decrement at most 1e-12*(1+|loglik|)" (converged), "a step
    predicted a gain below half the decrement tolerance", "max_iter (N)
    steps taken" or "start is infeasible".
    """

    spec: ModelSpec
    params: ModelParams
    trans: np.ndarray
    loglik: float
    converged: bool
    se_trans: np.ndarray
    se_natural: np.ndarray
    cov_trans: np.ndarray | None
    grad_inf_norm: float
    condition_number: float
    n_evaluations: int
    n_iterations: int
    n_obs: int
    message: str
    to_raw: np.ndarray

    @property
    def n_params(self) -> int:
        return self.trans.size

    @property
    def trans_raw(self) -> np.ndarray:
        return self.to_raw @ self.trans

    @property
    def beta_index(self) -> int:
        return self.spec.n_baseline_params

    @property
    def beta_hat(self) -> float:
        return self.params.beta

    @property
    def beta_se(self) -> float:
        return float(self.se_natural[self.beta_index])

    @property
    def frailty_var_hat(self) -> float:
        return self.params.frailty_var

    @property
    def frailty_var_se(self) -> float:
        return float(self.se_natural[-1])


@dataclass
class _Run:
    """Where one Newton run ended: the point, the objective, its gradient
    and its Hessian there (f = inf at an infeasible point), that Hessian's
    inverse Cholesky factor (``_inverse_factor``; None when it has none),
    the objective calls and accepted steps it took, why it stopped, and
    whether that was the decrement rule, the one test of convergence."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    hess: np.ndarray
    inv_factor: np.ndarray | None
    nfev: int
    nit: int
    message: str
    converged: bool


def _inverse_factor(a: np.ndarray) -> np.ndarray | None:
    """M = L^-1 for the lower Cholesky factor L of a, so that a^-1 = M'M;
    None when a counts as not positive definite: the factor or its inverse
    fails, or the inverse is not finite."""
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return None
    return inverse if np.isfinite(inverse).all() else None


def _decrement(inv_factor: np.ndarray | None, g: np.ndarray) -> float:
    """g'H^-1 g = |M g|^2 from H's inverse factor M; inf when H has none."""
    return np.inf if inv_factor is None else float((inv_factor @ g) @ (inv_factor @ g))


def _newton(fun, x0: np.ndarray, *, max_iter: int) -> _Run:
    """Minimize fun(x) -> (f, g, H) by Newton steps in Levenberg-Marquardt
    form from x0, with H the Hessian.

    Each trial step is p = -(H + lam I)^-1 g = -M'M g, with M the inverse
    Cholesky factor of H + lam I, and is taken when rho, the actual fall
    f(x) - f(x + p) over the predicted one -(g'p + p'Hp/2), exceeds
    _MIN_RATIO. lam starts at 0 and follows the ratio (Nielsen's rule;
    Madsen, Nielsen & Tingleff, Methods for Non-Linear Least Squares
    Problems, 2004): a taken step scales it by max(1/3, 1 - (2 rho - 1)^3),
    and a rejected one by 2, 4, 8, ... in turn, from at least _LAM_FLOOR
    times H's largest diagonal entry, which is also where lam doubles from
    while H + lam I has no factor (Nocedal & Wright, Numerical
    Optimization, 2006, Alg. 3.3). A matrix without one counts as not
    positive definite, so no LinAlgError leaves the run. Each iterate's H
    is factored once, when it is reached, for its decrement, its Newton
    step and the run's inv_factor. A point where f, g or H is not finite
    is infeasible (f = inf), so its trial is rejected. The run converges
    when an iterate's Newton decrement g'H^-1 g, at lam = 0 and with H
    positive definite, is at most tol = _DECREMENT (1 + |f|). A trial that
    meets that rule itself and lies at most tol above f is taken, and the
    run converges there, whatever rho: near the optimum the predicted fall
    can be of the order of f's rounding, about 1e-12 where the terms of a
    log-likelihood near 0 are in the thousands, so rho reads only that
    rounding. It ends without converging when a step predicts, before its
    trial, a fall of at most tol/2 (the Newton step at lam = 0 predicts
    half the decrement, so only a shifted step can; with no finite lam
    that gives H + lam I a factor, no step predicts no fall); after
    max_iter steps; or at once from an infeasible start.
    """
    nfev = nit = 0

    def evaluate(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        f, g, hess = fun(x)
        if not (np.isfinite(f) and np.isfinite(g).all() and np.isfinite(hess).all()):
            f = np.inf
        return f, g, hess

    x = np.array(x0, dtype=float)
    f, g, hess = evaluate(x)
    if not np.isfinite(f):
        return _Run(x=x, fun=f, jac=g, hess=hess, inv_factor=None, nfev=nfev, nit=nit,
                    message="start is infeasible", converged=False)
    inv_factor = _inverse_factor(hess)
    converged = _decrement(inv_factor, g) <= _DECREMENT * (1.0 + abs(f))
    message = _DECREMENT_STOP
    eye = np.eye(x.size)
    lam, nu = 0.0, 2.0
    while not converged:
        if nit >= max_iter:
            message = f"max_iter ({max_iter}) steps taken"
            break
        tol = _DECREMENT * (1.0 + abs(f))
        floor = _LAM_FLOOR * (float(np.max(np.abs(np.diag(hess)))) or 1.0)
        shifted = inv_factor if lam == 0.0 else _inverse_factor(hess + lam * eye)
        while shifted is None and 2.0 * lam < np.inf:
            lam = max(2.0 * lam, floor)
            shifted = _inverse_factor(hess + lam * eye)
        # no finite shift with a factor: no step, which predicts no gain
        p = np.zeros_like(x) if shifted is None else -(shifted.T @ (shifted @ g))
        predicted = float(-(g @ p + 0.5 * (p @ hess @ p)))
        if not predicted > 0.5 * tol:
            message = _GAIN_STOP
            break
        f_new, g_new, hess_new = evaluate(x + p)
        rho = float((f - f_new) / predicted)
        if rho > _MIN_RATIO or f_new <= f + tol:
            inv_new = _inverse_factor(hess_new)
            converged = _decrement(inv_new, g_new) <= _DECREMENT * (1.0 + abs(f_new))
        if rho > _MIN_RATIO or converged:
            x, f, g, hess, inv_factor = x + p, f_new, g_new, hess_new, inv_new
            nit += 1
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam = max(lam * nu, floor)
            nu *= 2.0
    return _Run(x=x, fun=f, jac=g, hess=hess, inv_factor=inv_factor, nfev=nfev, nit=nit,
                message=message, converged=converged)


def _starting_point(spec: ModelSpec, prep: _Prepared) -> np.ndarray:
    """The cold start on the raw transformed scale: the crude event rate, a
    unit shape, a flat Gompertz hazard or a unit spline slope, no treatment
    effect and a frailty variance of 0.1. A dataset's anchor starts here,
    and so does every model of a dataset whose anchor did not converge."""
    start = np.zeros(spec.n_params)
    start[0] = np.log(float(prep.rows.d.sum() / prep.rows.t.sum()))
    if spec.baseline == "rp":
        start[1] = 1.0
    start[-1] = np.log(0.1)
    return start


def _is_anchor(spec: ModelSpec) -> bool:
    """Whether spec is the anchor's model, exp_gamma, at any node count."""
    return spec.baseline == "exp" and spec.frailty is FrailtyFamily.GAMMA


def _anchor(rows: PreparedDataset) -> FitResult:
    """The dataset's exp_gamma fit from _starting_point at the default
    max_iter, made on first need and kept in rows.anchor."""
    if rows.anchor is None:
        spec = ModelSpec("exp", FrailtyFamily.GAMMA)
        prep = _prepare(spec, rows)
        rows.anchor = _run_fit(spec, prep, _starting_point(spec, prep), _MAX_ITER)
    return rows.anchor


def _anchored_start(spec: ModelSpec, prep: _Prepared) -> np.ndarray:
    """fit's start when it is given none, on the raw transformed scale: the
    dataset's anchor mapped onto the exponential that spec nests (unit
    shape, a flat Gompertz hazard, or a unit slope on log t and no other
    spline term), with the anchor's log rate and beta and a log variance of
    at least log 0.1. A log-Normal frailty with log-mean 0 has mean
    e^(var/2), so its log rate is lowered by var/2, after its variance is
    capped at 10. exp_gamma, and every model of a dataset whose anchor did
    not converge, takes _starting_point.

    On rep 0 of the study grid (seed 20240901), without the variance floor
    the 10 models other than exp_gamma and exp_lognormal on
    ww1_gamma_t025_750x2 and ww1_lognormal_t025_750x2, whose anchors sit at
    variances of about 1e-11, end non-converged, each at a loglik at least
    10 below its optimum; without the shift, the six log-Normal models took
    6.5-7.1 evaluations a fit on average, against 4.6-6.0 with it. Without
    the cap 12 of 324 log-Normal fits on ww2_gamma_t50 (20x150, 750x2 and
    100x10, reps 0-17) end non-converged, and none with it.
    """
    start = _starting_point(spec, prep)
    if _is_anchor(spec):
        return start
    anchor = _anchor(prep.rows)
    if not anchor.converged:
        return start
    log_rate, start[-2], log_var = anchor.trans_raw
    start[-1] = max(log_var, start[-1])
    if spec.frailty is FrailtyFamily.LOG_NORMAL:
        start[-1] = min(start[-1], _LOG_NORMAL_START_LOG_VAR)
        log_rate -= 0.5 * np.exp(start[-1])
    start[0] = log_rate
    return start


def fit(
    spec: ModelSpec,
    data: ClusteredDataset | PreparedDataset,
    *,
    start: np.ndarray | None = None,
    max_iter: int = _MAX_ITER,
) -> FitResult:
    """Maximize the marginal log-likelihood; never raises on mere non-convergence.

    data is a ClusteredDataset or, shared by the fits of its models, its
    prepare_dataset; both give the same fit, bit for bit.

    One run of Newton steps in Levenberg-Marquardt form (``_newton``) on
    the analytic score and observed information; every evaluation is one
    ``_loglik_core`` pass that returns the loglik with both. The run
    converges at the first iterate whose information is positive definite
    and whose Newton decrement g'H^-1 g is at most 1e-12 (1 + |loglik|);
    max_iter steps, an infeasible start or a shifted step that predicts a
    gain of at most half that end it first without converging. The
    information of that last iterate is the fit's Hessian. One Cholesky
    factor of each iterate's information gives its decrement, its step
    and, at the last, ``cov_trans``; no LinAlgError leaves a fit.

    Without a ``start``, every model but exp_gamma starts from the
    dataset's anchor, its exp_gamma fit from ``_starting_point``
    (``_anchored_start``), made by the first fit that needs it and kept in
    the PreparedDataset; exp_gamma at the default max_iter is the anchor
    itself, and at another max_iter runs from ``_starting_point``. So a fit
    depends on (spec, dataset, start, max_iter) alone, not on the other
    models fitted to the dataset or their order. ``start`` replaces that
    start with a vector on the raw transformed scale (a FitResult's
    ``trans_raw``), which is how warm starts such as bootstrap refits are
    done.
    """
    rows = data if isinstance(data, PreparedDataset) else prepare_dataset(data)
    if start is None and max_iter == _MAX_ITER and _is_anchor(spec):
        anchor = _anchor(rows)
        return replace(anchor, spec=spec, params=replace(anchor.params, spec=spec))
    prep = _prepare(spec, rows)
    start = _anchored_start(spec, prep) if start is None else np.asarray(start, dtype=float)
    if start.shape != (spec.n_params,):
        raise ValueError(f"start must have {spec.n_params} entries, got {start.shape}")
    return _run_fit(spec, prep, start, max_iter)


def _run_fit(spec: ModelSpec, prep: _Prepared, start: np.ndarray, max_iter: int) -> FitResult:
    """fit's one Newton run from start, on the raw transformed scale."""

    def objective(vec: np.ndarray):
        ll, score, info = _loglik_core(prep, spec, vec, information=True)
        return -ll, -score, info

    run = _newton(objective, np.linalg.solve(prep.to_raw, start), max_iter=max_iter)
    params = unpack_params(spec, prep.to_raw @ run.x, basis=prep.basis)
    cov_trans, cond = None, np.nan
    se_trans, se_natural = np.full((2, spec.n_params), np.nan)
    if run.inv_factor is not None:
        cov_trans, cond = run.inv_factor.T @ run.inv_factor, float(np.linalg.cond(run.hess))
        # d natural / d trans: the log entries' chain factor times to_raw
        jac = np.where(spec.log_scale, params.natural_vector(), 1.0)[:, None] * prep.to_raw
        se_trans = np.sqrt(np.diag(cov_trans))
        se_natural = np.sqrt(np.diag(jac @ cov_trans @ jac.T))

    return FitResult(
        spec=spec,
        params=params,
        trans=run.x,
        loglik=float(-run.fun),
        converged=run.converged,
        se_trans=se_trans,
        se_natural=se_natural,
        cov_trans=cov_trans,
        grad_inf_norm=float(np.max(np.abs(run.jac))),
        condition_number=cond,
        n_evaluations=run.nfev,
        n_iterations=run.nit,
        n_obs=prep.rows.t.size,
        message=run.message,
        to_raw=prep.to_raw,
    )


def information_criteria(result: FitResult, n_obs: int | None = None) -> tuple[float, float]:
    """(AIC, BIC). BIC's sample size defaults to the subject count."""
    k = result.n_params
    n = result.n_obs if n_obs is None else int(n_obs)
    if not n > 0:
        raise ValueError(f"n_obs must be positive, got {n}")
    aic = -2.0 * result.loglik + 2.0 * k
    bic = -2.0 * result.loglik + k * np.log(n)
    return float(aic), float(bic)
