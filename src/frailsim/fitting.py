"""Marginal maximum likelihood for shared-frailty survival models.

Baselines: exponential, Weibull, Gompertz, or a Royston-Parmar restricted
cubic spline of log time (df in {3, 5, 9}). Frailty: Gamma (closed-form
marginal likelihood) or log-Normal (adaptive Gauss-Hermite marginalization).

Optimization happens on a transformed scale where every parameter is free:
log rate, log shape, log frailty variance; Gompertz slope, spline
coefficients, and beta unchanged. The likelihood comes with its analytic
score on that scale: per row d log h and d log H (closed forms, or the
spline basis B and its derivative Bd), and per cluster the derivatives of
the Gamma closed form or of the Gauss-Hermite sum in the cluster's
cumulative hazard V and the log frailty variance. The observed information
at an optimum follows by the chain rule through V: closed second
derivatives per row, and per cluster those of the Gamma closed form, or
central differences of the Gauss-Hermite derivatives in V and log variance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, FitSetupError
from .hazards import FrailtyFamily
from .simulate import ClusteredDataset
from .splines import SplineBasis, basis_derivative, basis_eval, place_knots
from .quadrature import adaptive_gh_batch, gh_rule, lognormal_laplace

__all__ = [
    "ModelSpec",
    "ModelParams",
    "FitResult",
    "model_from_id",
    "MODEL_BASELINES",
    "conditional_pieces",
    "gamma_marginal_loglik",
    "lognormal_marginal_loglik",
    "fit",
    "information_criteria",
    "unpack_params",
    "pack_params",
]

MODEL_BASELINES = ("exp", "wei", "gom", "rp")
RP_DF = (3, 5, 9)

# steps of the central differences of the log-Normal cluster derivatives:
# relative in V, and 1e-4 (1 + |log var|) in log var, because near var = 0
# each cluster's g_u is a difference of O(1) terms whose rounding a smaller
# step would amplify
_V_STEP = 1e-5
_U_STEP = 1e-4
# relative, because an absolute score tolerance of 1e-7 is below what the
# objective resolves at |loglik| of 500-2,000
_GTOL_REL = 1e-7
_SCORE_STOP = f"score below {_GTOL_REL:g}*(1+|loglik|)"
# logliks closer than this, relative, are equal up to the rounding of a sum
# over thousands of rows; near an optimum they differ by about 2e-15
_ROUNDING = 1e-12
_FALLBACK = "first start not converged, fallback starts ran"
# BFGS's absolute gradient tolerance and strong Wolfe constants, as in
# scipy's BFGS, and the trials one line search may make
_GTOL = 1e-7
_C1, _C2 = 1e-4, 0.9
_LS_TRIALS = 20


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
        if self.frailty not in (FrailtyFamily.GAMMA, FrailtyFamily.LOG_NORMAL):
            raise ValueError("fit frailty must be gamma or lognormal")
        if self.baseline == "rp":
            if self.df not in RP_DF:
                raise ValueError(f"rp baseline needs df in {RP_DF}, got {self.df}")
        elif self.df is not None:
            raise ValueError("df applies only to the rp baseline")
        if not self.gh_nodes >= 7:
            raise ValueError(f"gh_nodes must be at least 7, got {self.gh_nodes}")

    @property
    def id(self) -> str:
        tag = f"rp{self.df}" if self.baseline == "rp" else self.baseline
        return f"{tag}_{self.frailty.value}"

    @property
    def n_baseline_params(self) -> int:
        if self.baseline == "exp":
            return 1
        if self.baseline in ("wei", "gom"):
            return 2
        return self.df + 1

    @property
    def n_params(self) -> int:
        return self.n_baseline_params + 2

    def param_names(self) -> list[str]:
        if self.baseline == "exp":
            names = ["log_rate"]
        elif self.baseline == "wei":
            names = ["log_rate", "log_shape"]
        elif self.baseline == "gom":
            names = ["log_rate", "gamma"]
        else:
            names = [f"s{k}" for k in range(self.df + 1)]
        return names + ["beta", "log_frailty_var"]

    @property
    def log_scale(self) -> np.ndarray:
        """Which entries of the transformed vector are logs of their
        natural values: those of param_names() named log_*."""
        return np.array([name.startswith("log_") for name in self.param_names()])

    def natural_names(self) -> list[str]:
        return [name[4:] if name.startswith("log_") else name
                for name in self.param_names()]


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
    ids = []
    for frail in ("gamma", "lognormal"):
        for base in ("exp", "wei", "gom", "rp3", "rp5", "rp9"):
            ids.append(f"{base}_{frail}")
    return ids


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
class _Prepared:
    """Per-(model, dataset) quantities that do not change across iterations.

    For the rp baseline, B and Bd hold orthogonalized basis columns: the
    raw columns are centered and QR-rotated so the internal design has
    orthogonal columns of unit root-mean-square, and the optimizer works on
    their coefficients. Raw truncated-power columns with nearby knots are
    so collinear that BFGS, which starts from an identity inverse Hessian,
    conditions badly on their coefficients: on the raw coefficients, the
    study's 90 scenarios at reps 0-2 (1,620 rp fits) had 2 fits that did
    not converge and 13 that needed the fallback starts, against none
    here, and 14% more evaluations (at most 379 in a fit, against 109).

    to_raw maps an optimizer-scale vector to the raw transformed vector of
    pack_params and unpack_params: the identity but for the rp coefficient
    block [[1, -center T^-1], [0, T^-1]], with T the QR's R / sqrt(n).

    design is the constant part of d log H / d(baseline, beta), one row per
    subject: [1, x] (exp), [1, B, x] (rp), and [1, z, x] for wei and gom,
    whose middle column varies with the parameters and is built from z =
    log t (wei) or t (gom). event_design is its sum over the event rows,
    event_logt that of log t, and event_Bd the rows of Bd at the events.
    """

    t: np.ndarray
    logt: np.ndarray
    x: np.ndarray
    d: np.ndarray
    cluster: np.ndarray
    n_clusters: int
    events_per_cluster: np.ndarray
    basis: SplineBasis | None
    B: np.ndarray | None
    Bd: np.ndarray | None
    to_raw: np.ndarray
    design: np.ndarray
    event_design: np.ndarray
    event_logt: float
    event_Bd: np.ndarray | None
    d_range: np.ndarray = field(init=False)

    def __post_init__(self):
        self.d_range = np.arange(int(self.events_per_cluster.max()) + 1, dtype=float)


def _rows(spec: ModelSpec, t: np.ndarray, logt: np.ndarray, x: np.ndarray,
          d: np.ndarray, cluster: np.ndarray, basis: SplineBasis | None,
          to_raw: np.ndarray, B: np.ndarray | None = None,
          Bd: np.ndarray | None = None) -> _Prepared:
    """The _Prepared of rows at times t (logs logt), arms x, event flags d
    and clusters, with its constant design and event-row sums. For rp, B
    and Bd are the basis columns and their derivatives on the optimizer
    scale; by default those of basis at logt, mapped by to_raw."""
    if basis is not None and B is None:
        nb = spec.n_baseline_params
        coefs = to_raw[1:nb, 1:nb]
        B = basis_eval(basis, logt) @ coefs + to_raw[0, 1:nb]
        Bd = basis_derivative(basis, logt) @ coefs
    n_clusters = int(cluster.max()) + 1
    middle = {"exp": (), "wei": (logt,), "gom": (t,), "rp": (B,)}[spec.baseline]
    design = np.column_stack((np.ones_like(t), *middle, x))
    return _Prepared(
        t=t,
        logt=logt,
        x=x,
        d=d,
        cluster=cluster,
        n_clusters=n_clusters,
        events_per_cluster=np.bincount(cluster, weights=d, minlength=n_clusters),
        basis=basis,
        B=B,
        Bd=Bd,
        to_raw=to_raw,
        design=design,
        event_design=design[d].sum(axis=0),
        event_logt=float(logt[d].sum()),
        event_Bd=None if Bd is None else Bd[d],
    )


def _prepare(spec: ModelSpec, data: ClusteredDataset,
             basis: SplineBasis | None = None,
             orthogonalize: bool = True,
             require_events: bool = True) -> _Prepared:
    t = np.asarray(data.time, dtype=float)
    if (t <= 0).any():
        raise FitSetupError("all times must be positive")
    d = np.asarray(data.event, dtype=bool)
    if require_events and not d.any():
        raise FitSetupError("cannot fit with zero events")
    logt = np.log(t)
    to_raw = np.eye(spec.n_params)
    B = Bd = None
    if spec.baseline == "rp":
        if basis is None:
            basis = place_knots(logt[d], spec.df)
        B = basis_eval(basis, logt)
        Bd = basis_derivative(basis, logt)
        if orthogonalize:
            # Optimizer scale only; plain likelihood evaluation at fixed
            # parameters works on the raw columns and has no rank demands.
            center = B.mean(axis=0)
            root_n = np.sqrt(B.shape[0])
            q, r = np.linalg.qr(B - center)
            if (np.abs(np.diag(r)) / root_n < 1e-10).any():
                raise FitSetupError("spline basis columns are numerically collinear")
            transform = r / root_n
            B = q * root_n
            # Bd T^-1 by substitution, one column at a time: T is upper
            # triangular and has at most 9 columns
            raw_Bd, Bd = Bd, np.empty_like(Bd)
            for j in range(Bd.shape[1]):
                Bd[:, j] = (raw_Bd[:, j] - Bd[:, :j] @ transform[:j, j]) / transform[j, j]
            # T's LU makes no row swaps, so this inverse is a back substitution
            inverse = np.linalg.inv(transform)
            nb = spec.n_baseline_params
            to_raw[1:nb, 1:nb] = inverse
            to_raw[0, 1:nb] = -center @ inverse
    return _rows(spec, t, logt, np.asarray(data.treat, dtype=float), d,
                 np.asarray(data.cluster, dtype=np.int64), basis, to_raw, B, Bd)


def _grid_prepared(result: FitResult, t: np.ndarray, x: np.ndarray) -> _Prepared:
    """Rows at positive times t and arms x, each a censored cluster of its
    own, on the optimizer scale of a fit: _log_h_and_H on it at result.trans
    gives H(t, x) and d log H / d trans."""
    n = t.size
    return _rows(result.spec, t, np.log(t), np.asarray(x, dtype=float),
                 np.zeros(n, dtype=bool), np.arange(n), result.basis, result.to_raw)


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
    with np.errstate(over="ignore"):
        return np.where(small, 1.0 / 12.0 - v2 / 240.0 + v2 * v2 / 6048.0,
                        1.0 / (safe * safe) - 0.25 / np.sinh(0.5 * safe) ** 2)


def _log_h_and_H(prep: _Prepared, spec: ModelSpec, vec: np.ndarray):
    """The sum of log h over the event rows, the row-wise conditional
    cumulative hazard H, the sum of d log h over the event rows, and the
    row-wise d log H, the derivatives in vec[:nb + 1] (baseline and beta).

    The log h sum may be -inf (flagging a nonpositive RP hazard slope at an
    event) or NaN; H may overflow to inf. Both are handled by the callers.
    d log H may be prep.design itself, which callers must not modify.
    """
    nb = spec.n_baseline_params
    theta = vec[:nb + 1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.baseline == "exp":
            log_h_sum = prep.event_design @ theta
            H = np.exp(vec[0] + prep.x * vec[nb]) * prep.t
            dlog_h_sum, dlog_H = prep.event_design, prep.design
        elif spec.baseline == "wei":
            # log h = log rate + log shape + (shape - 1) log t + x beta
            shape = np.exp(vec[1])
            scale = np.array([1.0, shape, 1.0])
            log_h_sum = (prep.event_design @ [vec[0], shape - 1.0, vec[nb]]
                         + prep.event_design[0] * vec[1])
            H = np.exp(vec[0] + shape * prep.logt + prep.x * vec[nb])
            dlog_h_sum = prep.event_design * scale + [0.0, prep.event_design[0], 0.0]
            dlog_H = prep.design * scale
        elif spec.baseline == "gom":
            log_h_sum = prep.event_design @ theta
            H = np.exp(vec[0] + prep.x * vec[nb]) * prep.t * _expm1_over(vec[1] * prep.t)
            dlog_h_sum = prep.event_design
            dlog_H = prep.design.copy()
            dlog_H[:, 1] *= _dlog_expm1_over(vec[1] * prep.t)
        else:
            sp = prep.event_Bd @ vec[1:nb]
            log_sp = np.where(sp > 0, np.log(np.where(sp > 0, sp, 1.0)), -np.inf)
            log_h_sum = log_sp.sum() - prep.event_logt + prep.event_design @ theta
            H = np.exp(prep.design @ theta)
            dlog_h_sum = prep.event_design.copy()
            dlog_h_sum[1:nb] += (1.0 / sp) @ prep.event_Bd
            dlog_H = prep.design
    return float(log_h_sum), H, dlog_h_sum, dlog_H


def _lognormal_clusters(D: np.ndarray, V: np.ndarray, var: float, rule):
    """Log-Normal cluster terms by adaptive Gauss-Hermite, with their exact
    derivatives in V and in log var.

    The derivatives are those of the quadrature sum itself, not of the
    integral it approximates: the nodes mode + scale*z move with V and var
    through the Wright omega w = var*curv - 1 of lognormal_laplace, whose
    derivative in its argument log(var*V) + var*D is w/(1 + w).
    """
    const = -0.5 * np.log(2.0 * np.pi * var)
    e_eta_V = None

    # adaptive_gh_batch calls log_f once, on the nodes it returns, so the
    # exponential kept here serves the score below
    def log_f(eta: np.ndarray) -> np.ndarray:
        nonlocal e_eta_V
        # e^eta * V as one exponential: 0, not inf * 0, where V underflowed
        e_eta_V = np.exp(eta + log_V)
        return eta * D - e_eta_V - eta * eta / (2.0 * var) + const

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_V = np.log(V)
        laplace = lognormal_laplace(D, V, 0.0, var)
        logs, eta, weight = adaptive_gh_batch(log_f, rule, laplace)
        mode, curv = laplace
        w = var * curv - 1.0
        one_w = 1.0 + w
        var_D = var * D
        e_eta = np.exp(eta)
        # l'(eta) at each node, and its posterior means without and with
        # the node offset eta - mode
        weight_dl = weight * (D - e_eta_V - eta / var)
        mean_dl = weight_dl.sum(axis=0)
        mean_dl_off1 = (weight_dl * (eta - mode)).sum(axis=0) + 1.0
        # d w / dV = var e^mode / (1 + w) needs no division by V. At V = 0
        # with var*D > 709 it overflows and the score is not finite; the
        # optimizer treats such a point as infeasible.
        w_V = var * np.exp(mode) / one_w
        w_u = w / one_w * (1.0 + var_D)
        # mode = var*D - w, log scale = (log 2 + log var - log(1 + w)) / 2
        log_scale_V = -0.5 * w_V / one_w
        log_scale_u = 0.5 - 0.5 * w_u / one_w
        g_V = (-(weight * e_eta).sum(axis=0) - w_V * mean_dl
               + log_scale_V * mean_dl_off1)
        g_u = ((weight * eta * eta).sum(axis=0) / (2.0 * var) - 0.5
               + (var_D - w_u) * mean_dl + log_scale_u * mean_dl_off1)
    return logs, g_V, g_u


def _gamma_clusters(D: np.ndarray, V: np.ndarray, var: float, d_range: np.ndarray):
    """Gamma cluster terms in closed form, with their derivatives in V and in
    log var. d_range is 0, 1, ..., max(D)."""
    # log Gamma(1/v + D) - log Gamma(1/v) + D log v telescopes to
    # sum_{j<D} log(1 + j v), which is stable for every v > 0
    jv = var * d_range[:-1]
    ratio_terms = np.concatenate(([0.0], np.cumsum(np.log1p(jv))))
    ratio_slopes = np.concatenate(([0.0], np.cumsum(jv / (1.0 + jv))))
    Di = D.astype(np.int64)
    log1p_vV = np.log1p(var * V)
    cluster_logs = ratio_terms[Di] - (1.0 / var + D) * log1p_vV
    g_V = -(1.0 + var * D) / (1.0 + var * V)
    g_u = ratio_slopes[Di] + log1p_vV / var + g_V * V
    return cluster_logs, g_V, g_u


def _gamma_curvature(D: np.ndarray, V: np.ndarray, var: float, d_range: np.ndarray):
    """Second derivatives g_VV, g_Vu and g_uu of the Gamma cluster terms of
    _gamma_clusters, in V and in u = log var, in closed form."""
    jv = var * d_range[:-1]
    ratio_curvatures = np.concatenate(([0.0], np.cumsum(jv / (1.0 + jv) ** 2)))
    one_vV = 1.0 + var * V
    g_VV = var * (1.0 + var * D) / one_vV**2
    g_Vu = -var * (D - V) / one_vV**2
    g_uu = (ratio_curvatures[D.astype(np.int64)] + V / one_vV - np.log1p(var * V) / var
            + g_Vu * V)
    return g_VV, g_Vu, g_uu


def _lognormal_curvature(D: np.ndarray, V: np.ndarray, var: float, rule):
    """g_VV, g_Vu and g_uu of the log-Normal cluster terms: central
    differences of _lognormal_clusters' g_V and g_u, in V by a step relative
    to V and in u = log var. g_VV is 0 where V is 0, since it multiplies
    d V / d vec, which is 0 there too."""
    h = _V_STEP
    _, g_V_up, _ = _lognormal_clusters(D, V * (1.0 + h), var, rule)
    _, g_V_down, _ = _lognormal_clusters(D, V * (1.0 - h), var, rule)
    step = 2.0 * h * V
    g_VV = np.divide(g_V_up - g_V_down, step, out=np.zeros_like(V), where=step > 0)
    hu = _U_STEP * (1.0 + abs(np.log(var)))
    _, g_Vu_up, g_u_up = _lognormal_clusters(D, V, var * np.exp(hu), rule)
    _, g_Vu_down, g_u_down = _lognormal_clusters(D, V, var * np.exp(-hu), rule)
    return g_VV, (g_Vu_up - g_Vu_down) / (2.0 * hu), (g_u_up - g_u_down) / (2.0 * hu)


def _cluster_terms(spec: ModelSpec, D: np.ndarray, V: np.ndarray, var: float,
                   d_range: np.ndarray):
    """Each cluster's log marginal term given its event count D and
    cumulative hazard V, with its derivatives g_V in V and g_u in log var."""
    if spec.frailty is FrailtyFamily.GAMMA:
        return _gamma_clusters(D, V, var, d_range)
    return _lognormal_clusters(D, V, var, gh_rule(spec.gh_nodes))


def _cluster_curvature(spec: ModelSpec, D: np.ndarray, V: np.ndarray, var: float,
                       d_range: np.ndarray):
    """The second derivatives g_VV, g_Vu and g_uu of _cluster_terms."""
    if spec.frailty is FrailtyFamily.GAMMA:
        return _gamma_curvature(D, V, var, d_range)
    return _lognormal_curvature(D, V, var, gh_rule(spec.gh_nodes))


def _loglik_core(prep: _Prepared, spec: ModelSpec, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Marginal log-likelihood and its score (gradient in vec).

    A non-finite log-likelihood reads -inf, with a score of NaNs.
    """
    infeasible = -np.inf, np.full(vec.size, np.nan)
    log_h_sum, H, dlog_h_sum, dlog_H = _log_h_and_H(prep, spec, vec)
    if not (np.isfinite(log_h_sum) and np.isfinite(H).all()):
        return infeasible
    V = np.bincount(prep.cluster, weights=H, minlength=prep.n_clusters)
    cluster_logs, g_V, g_u = _cluster_terms(spec, prep.events_per_cluster, V,
                                            np.exp(vec[-1]), prep.d_range)
    ll = log_h_sum + float(cluster_logs.sum())
    # optimizer excursions (an extreme log variance, every H underflowing)
    # can leave non-finite cluster terms; they are infeasible points
    if not np.isfinite(ll):
        return infeasible
    score = np.empty(vec.size)
    score[:-1] = dlog_h_sum + (g_V[prep.cluster] * H) @ dlog_H
    score[-1] = g_u.sum()
    return ll, score


def _observed_information(prep: _Prepared, spec: ModelSpec, vec: np.ndarray) -> np.ndarray:
    """Hessian of the negated marginal log-likelihood at vec, all NaN at an
    infeasible point.

    One pass over the rows, by the chain rule through each cluster's
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
    nb = spec.n_baseline_params
    k = vec.size
    hess = np.full((k, k), np.nan)
    log_h_sum, H, _, dlog_H = _log_h_and_H(prep, spec, vec)
    if not (np.isfinite(log_h_sum) and np.isfinite(H).all()):
        return hess
    V = np.bincount(prep.cluster, weights=H, minlength=prep.n_clusters)
    D, var = prep.events_per_cluster, np.exp(vec[-1])
    cluster_logs, g_V, _ = _cluster_terms(spec, D, V, var, prep.d_range)
    if not np.isfinite(cluster_logs.sum()):
        return hess
    w = g_V[prep.cluster] * H
    # dV_i, one row per cluster: a single bincount over (cluster, column)
    cells = prep.cluster[:, None] * (k - 1) + np.arange(k - 1)
    dV = np.bincount(cells.ravel(), weights=(dlog_H * H[:, None]).ravel(),
                     minlength=prep.n_clusters * (k - 1)).reshape(prep.n_clusters, k - 1)
    # a score that overflowed where a V underflowed leaves a non-finite
    # matrix, which the caller reads as not positive definite
    with np.errstate(over="ignore", invalid="ignore"):
        g_VV, g_Vu, g_uu = _cluster_curvature(spec, D, V, var, prep.d_range)
        block = (dlog_H * w[:, None]).T @ dlog_H + (dV * g_VV[:, None]).T @ dV
        if spec.baseline == "wei":
            block[1, 1] += np.exp(vec[1]) * (prep.event_design[1] + w @ prep.logt)
        elif spec.baseline == "gom":
            block[1, 1] += w @ (prep.t**2 * _d2log_expm1_over(vec[1] * prep.t))
        elif spec.baseline == "rp":
            q = prep.event_Bd / (prep.event_Bd @ vec[1:nb])[:, None]
            block[1:nb, 1:nb] -= q.T @ q
        hess[:-1, :-1] = block
        hess[-1, :-1] = hess[:-1, -1] = g_Vu @ dV
        hess[-1, -1] = g_uu.sum()
    return -hess


def conditional_pieces(spec: ModelSpec, params: ModelParams, t, x):
    """Conditional (frailty = 1) hazard and cumulative hazard at (t, x).

    For the rp baseline a nonpositive spline slope shows up as h <= 0: the
    returned hazard carries the slope's sign as a non-monotonicity flag, and
    the likelihood treats such a value at an event time as -inf.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if (t_arr <= 0).any():
        raise DomainError("times must be positive")
    x_arr = np.broadcast_to(np.asarray(x, dtype=float), t_arr.shape)
    xb = x_arr * params.beta
    if spec.baseline == "exp":
        rate = params.baseline[0]
        h = rate * np.exp(xb)
        H = h * t_arr
    elif spec.baseline == "wei":
        rate, shape = params.baseline
        h = rate * shape * t_arr ** (shape - 1.0) * np.exp(xb)
        H = rate * t_arr**shape * np.exp(xb)
    elif spec.baseline == "gom":
        rate, gamma = params.baseline
        h = rate * np.exp(gamma * t_arr + xb)
        H = rate * np.exp(xb) * t_arr * _expm1_over(gamma * t_arr)
    else:
        z = np.log(t_arr)
        coef = params.baseline[1:]
        s = params.baseline[0] + basis_eval(params.basis, z) @ coef
        sp = basis_derivative(params.basis, z) @ coef
        H = np.exp(s + xb)
        h = sp * H / t_arr
    if scalar:
        return float(h[0]), float(H[0])
    return h, H


def _marginal_loglik(family: FrailtyFamily, spec: ModelSpec, params: ModelParams,
                     data: ClusteredDataset) -> float:
    if spec.frailty is not family:
        raise ValueError(f"spec must have {family.value} frailty")
    prep = _prepare(spec, data, basis=params.basis, orthogonalize=False,
                    require_events=False)
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
    the raw transformed scale of ``trans_raw``; ``params``, ``se_natural``
    and ``cov_natural`` are on the reporting scales.
    ``n_evaluations`` counts the optimizer's evaluations over the starts
    that ran (one, or all three after a fallback), each one of the
    log-likelihood and its score together; the observed information taken
    at each start's optimum is not counted; ``n_iterations`` counts the
    BFGS steps accepted. ``grad_inf_norm`` is the largest absolute score
    entry at the optimum. ``message`` joins the distinct reasons the starts
    that ran stopped: the relative score rule of ``fit`` ("score below
    1e-07*(1+|loglik|)"), or one of ``_bfgs``'s own ("gradient inf-norm at
    most 1e-07", "line search found no strong-Wolfe step", "max_iter (N)
    steps taken", "start is infeasible"); after a fallback it also says
    "first start not converged, fallback starts ran".
    """

    spec: ModelSpec
    params: ModelParams
    trans: np.ndarray
    param_names: list[str]
    natural_names: list[str]
    loglik: float
    converged: bool
    se_trans: np.ndarray
    se_natural: np.ndarray
    cov_trans: np.ndarray | None
    cov_natural: np.ndarray | None
    grad_inf_norm: float
    hessian_pd: bool
    condition_number: float
    n_evaluations: int
    n_iterations: int
    n_obs: int
    n_events: int
    basis: SplineBasis | None
    message: str
    to_raw: np.ndarray

    @property
    def n_params(self) -> int:
        return self.trans.size

    @property
    def trans_raw(self) -> np.ndarray:
        return self.to_raw @ self.trans

    def params_from_trans(self, vec: np.ndarray) -> ModelParams:
        """Rebuild natural-scale parameters from an optimizer-scale vector."""
        return unpack_params(self.spec, self.to_raw @ np.asarray(vec, dtype=float),
                             basis=self.basis)

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
    """Where one BFGS run ended: the point, the objective and its gradient
    there (inf at an infeasible point), the objective calls and accepted
    steps it took, and why it stopped."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int
    nit: int
    message: str


class _Stopped(Exception):
    """Raised by _bfgs's evaluation when stop() gives a reason; args are
    (reason, x, f, g)."""


def _cubic_step(lo: tuple, hi: tuple) -> float:
    """The minimizer of the cubic through two (alpha, phi, dphi) triples
    (Nocedal & Wright eq. 3.59), or their midpoint when that minimizer does
    not exist or lies outside the middle 80% of the interval."""
    (a0, f0, d0), (a1, f1, d1) = lo, hi
    mid = 0.5 * (a0 + a1)
    if not (math.isfinite(f1) and math.isfinite(d1) and a0 != a1):
        return mid
    e = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = e * e - d0 * d1
    if not 0.0 <= disc < math.inf:
        return mid
    root = math.copysign(math.sqrt(disc), a1 - a0)
    denom = d1 - d0 + 2.0 * root
    if denom == 0.0:
        return mid
    alpha = a1 - (a1 - a0) * (d1 + root - e) / denom
    margin = 0.1 * abs(a1 - a0)
    return alpha if min(a0, a1) + margin <= alpha <= max(a0, a1) - margin else mid


def _line_search(evaluate, x: np.ndarray, f: float, g: np.ndarray, p: np.ndarray,
                 f_prev: float):
    """A step along p from x (objective f, gradient g) that meets the strong
    Wolfe conditions with _C1 and _C2: (alpha, x + alpha p, its f and g), or
    None when p is not a descent direction or _LS_TRIALS trials find none.

    Nocedal & Wright, Numerical Optimization (2nd ed.), Algorithms 3.5 and
    3.6: double the step until a trial brackets a minimizer, then zoom in
    by safeguarded cubic interpolation. An infeasible trial (f = inf) ends
    the bracket, so the search bisects back toward the last good step. The
    first trial is scipy's min(1, 2.02 (f - f_prev) / g'p), or 1 when that
    is not positive; f_prev is the previous iterate's objective.
    """
    slope0 = float(g @ p)
    if not slope0 < 0.0:
        return None
    alpha = 2.02 * (f - f_prev) / slope0
    alpha = min(1.0, alpha) if alpha > 0.0 else 1.0
    lo, hi = (0.0, f, slope0), None
    for _ in range(_LS_TRIALS):
        x_new = x + alpha * p
        f_new, g_new = evaluate(x_new)
        slope = float(g_new @ p) if np.isfinite(f_new) else np.nan
        if f_new > f + _C1 * alpha * slope0 or f_new >= lo[1]:
            hi = (alpha, f_new, slope)
        else:
            if abs(slope) <= -_C2 * slope0:
                return alpha, x_new, f_new, g_new
            if slope * (1.0 if hi is None else hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (alpha, f_new, slope)
        if hi is None:
            alpha *= 2.0
        else:
            alpha = _cubic_step(lo, hi)
            if alpha in (lo[0], hi[0]):
                return None
    return None


def _bfgs(fun, x0: np.ndarray, *, max_iter: int, stop) -> _Run:
    """Minimize fun(x) -> (f, g) by BFGS from x0.

    A dense inverse Hessian starts at the identity and takes the BFGS
    update after each step from _line_search, skipped when s'y <= 0. A
    point where f or g is not finite is infeasible and reads f = inf. The
    run ends, with its own message, when stop(f, g), asked at every
    feasible point evaluated (iterate or line-search trial), returns a
    reason; when an iterate's gradient inf-norm is at most _GTOL; when the
    line search fails; or after max_iter steps. A failed search along an
    updated direction is retried once along -g, with the inverse Hessian
    reset to the identity, as scipy's BFGS retries with a second line
    search; only when that fails too does the run end.
    """
    nfev = nit = 0

    def evaluate(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        f, g = fun(x)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            return np.inf, g
        reason = stop(f, g)
        if reason:
            raise _Stopped(reason, x, f, g)
        return f, g

    x = np.array(x0, dtype=float)
    try:
        f, g = evaluate(x)
        f_prev = f + np.linalg.norm(g) / 2.0
        hess_inv, updated = np.eye(x.size), False
        while True:
            if not np.isfinite(f):
                message = "start is infeasible"
                break
            if np.max(np.abs(g)) <= _GTOL:
                message = f"gradient inf-norm at most {_GTOL:g}"
                break
            if nit >= max_iter:
                message = f"max_iter ({max_iter}) steps taken"
                break
            step = _line_search(evaluate, x, f, g, -hess_inv @ g, f_prev)
            if step is None and updated:
                hess_inv, updated = np.eye(x.size), False
                step = _line_search(evaluate, x, f, g, -g, f_prev)
            if step is None:
                message = "line search found no strong-Wolfe step"
                break
            _, x_new, f_new, g_new = step
            s, y = x_new - x, g_new - g
            x, f_prev, f, g = x_new, f, f_new, g_new
            nit += 1
            sy = float(s @ y)
            if sy > 0.0:
                a = np.eye(x.size) - np.outer(s, y) / sy
                hess_inv, updated = a @ hess_inv @ a.T + np.outer(s, s) / sy, True
    except _Stopped as stopped:
        message, x, f, g = stopped.args
    return _Run(x=x, fun=f, jac=g, nfev=nfev, nit=nit, message=message)


def _starting_points(spec: ModelSpec, prep: _Prepared) -> list[np.ndarray]:
    rate0 = float(prep.d.sum() / prep.t.sum())
    log_rate0 = np.log(rate0)
    if spec.baseline == "exp":
        head = [log_rate0]
    elif spec.baseline in ("wei", "gom"):
        head = [log_rate0, 0.0]
    else:
        head = [log_rate0, 1.0] + [0.0] * (spec.df - 1)
    starts = []
    for var0 in (0.1, 0.5, 1.0):
        starts.append(np.array(head + [0.0, np.log(var0)], dtype=float))
    return starts


def fit(
    spec: ModelSpec,
    data: ClusteredDataset,
    *,
    start: np.ndarray | None = None,
    max_iter: int = 500,
) -> FitResult:
    """Maximize the marginal log-likelihood; never raises on mere non-convergence.

    BFGS (``_bfgs``, with a strong-Wolfe line search) and the analytic
    score, from the first of three deterministic starts (one per
    frailty-variance guess). A start ends at the first point it evaluates,
    iterate or line-search trial, whose score inf-norm is at most
    1e-7 (1 + |loglik|) and whose loglik is no lower than the best so far
    beyond rounding, unless the optimizer's own tests (absolute gtol 1e-7,
    a failed line search, max_iter) end it first. The Hessian at that optimum
    is the observed information, by the chain rule through each cluster's
    cumulative hazard (``_observed_information``). Only when that optimum fails
    the convergence test (score inf-norm at most 1e-5 (1 + |loglik|) and a
    positive-definite Hessian) do the other two starts run; each is assessed,
    and the converged start with the highest loglik is kept, or the highest
    loglik of all three when none converged. ``start`` replaces the start
    list with a single vector on the raw transformed scale (a FitResult's
    ``trans_raw``), which is how warm starts such as bootstrap refits are
    done.
    """
    prep = _prepare(spec, data)
    if start is None:
        raw_starts = _starting_points(spec, prep)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (spec.n_params,):
            raise ValueError(f"start must have {spec.n_params} entries, got {start.shape}")
        raw_starts = [start]
    starts = [np.linalg.solve(prep.to_raw, s) for s in raw_starts]

    def run(x0: np.ndarray) -> _Run:
        """One BFGS start, ended at the first point it evaluates whose
        score meets the relative rule: near such a point the loglik is flat
        to rounding, so a line search through it can only fail, after
        dozens of evaluations."""
        best_f = np.inf

        def flat(f: float, g: np.ndarray) -> str | None:
            nonlocal best_f
            done = (np.max(np.abs(g)) <= _GTOL_REL * (1.0 + abs(f))
                    and f <= best_f + _ROUNDING * (1.0 + abs(f)))
            best_f = min(best_f, f)
            return _SCORE_STOP if done else None

        def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
            ll, score = _loglik_core(prep, spec, vec)
            return -ll, -score

        return _bfgs(objective, x0, max_iter=max_iter, stop=flat)

    def assess(res):
        """(loglik, score inf-norm, covariance or None, condition number,
        converged) at the optimum of one start."""
        loglik = -res.fun
        grad_inf_norm = float(np.max(np.abs(res.jac)))
        grad_ok = np.isfinite(loglik) and grad_inf_norm <= 1e-5 * (1.0 + abs(loglik))
        hessian = _observed_information(prep, spec, res.x)
        cov, cond = None, np.nan
        if np.isfinite(hessian).all():
            try:
                inv_chol = np.linalg.inv(np.linalg.cholesky(hessian))
            except np.linalg.LinAlgError:
                pass
            else:
                cov = inv_chol.T @ inv_chol
                cov, cond = 0.5 * (cov + cov.T), float(np.linalg.cond(hessian))
        return loglik, grad_inf_norm, cov, cond, bool(grad_ok and cov is not None)

    runs = [run(starts[0])]
    assessed = [assess(runs[0])]
    if not assessed[0][-1] and len(starts) > 1:
        runs += [run(x0) for x0 in starts[1:]]
        assessed += [assess(res) for res in runs[1:]]
    # the best converged start by loglik, else the best by loglik; the
    # earlier start on a tie
    pick = max(range(len(runs)), key=lambda i: (assessed[i][-1], -runs[i].fun))
    best = runs[pick]
    loglik, grad_inf_norm, cov_trans, cond, converged = assessed[pick]
    messages = [str(res.message) for res in runs]
    if len(runs) > 1:
        messages.append(_FALLBACK)
    hessian_pd = cov_trans is not None
    params = unpack_params(spec, prep.to_raw @ best.x, basis=prep.basis)
    if hessian_pd:
        # d natural / d trans: the log entries' chain factor times to_raw
        jac = np.where(spec.log_scale, params.natural_vector(), 1.0)[:, None] * prep.to_raw
        se_trans = np.sqrt(np.diag(cov_trans))
        cov_natural = jac @ cov_trans @ jac.T
        se_natural = np.sqrt(np.diag(cov_natural))
    else:
        se_trans = np.full(spec.n_params, np.nan)
        se_natural = np.full(spec.n_params, np.nan)
        cov_natural = None

    return FitResult(
        spec=spec,
        params=params,
        trans=best.x,
        param_names=spec.param_names(),
        natural_names=spec.natural_names(),
        loglik=float(loglik),
        converged=converged,
        se_trans=se_trans,
        se_natural=se_natural,
        cov_trans=cov_trans,
        cov_natural=cov_natural,
        grad_inf_norm=grad_inf_norm,
        hessian_pd=hessian_pd,
        condition_number=cond,
        n_evaluations=sum(int(res.nfev) for res in runs),
        n_iterations=sum(int(res.nit) for res in runs),
        n_obs=data.n_subjects,
        n_events=data.n_events,
        basis=prep.basis,
        message="; ".join(dict.fromkeys(messages)),
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
