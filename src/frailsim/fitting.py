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
cumulative hazard V and the log frailty variance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

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

_PENALTY = 1e10
_HESS_STEP = 1e-4


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

    def natural_names(self) -> list[str]:
        names = self.param_names()
        out = []
        for name in names:
            if name == "log_frailty_var":
                out.append("frailty_var")
            elif name.startswith("log_"):
                out.append(name[4:])
            else:
                out.append(name)
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
    """Natural-scale ModelParams -> transformed optimizer vector."""
    spec = params.spec
    if spec.baseline == "exp":
        head = [np.log(params.baseline[0])]
    elif spec.baseline == "wei":
        head = [np.log(params.baseline[0]), np.log(params.baseline[1])]
    elif spec.baseline == "gom":
        head = [np.log(params.baseline[0]), params.baseline[1]]
    else:
        head = list(params.baseline)
    return np.array(head + [params.beta, np.log(params.frailty_var)], dtype=float)


def unpack_params(
    spec: ModelSpec, vec: np.ndarray, basis: SplineBasis | None = None
) -> ModelParams:
    """Transformed optimizer vector -> natural-scale ModelParams."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got {vec.shape}")
    nb = spec.n_baseline_params
    if spec.baseline == "exp":
        baseline = np.exp(vec[:1])
    elif spec.baseline == "wei":
        baseline = np.exp(vec[:2])
    elif spec.baseline == "gom":
        baseline = np.array([np.exp(vec[0]), vec[1]])
    else:
        baseline = vec[:nb].copy()
    return ModelParams(
        spec=spec,
        baseline=baseline,
        beta=float(vec[nb]),
        frailty_var=float(np.exp(vec[nb + 1])),
        basis=basis,
    )


def _natural_jacobian(spec: ModelSpec, vec: np.ndarray,
                      center: np.ndarray | None,
                      transform: np.ndarray | None) -> np.ndarray:
    """d(natural)/d(optimizer scale) as a full matrix at the optimizer point.

    Elementwise exp/identity except for the rp block, where the optimizer
    works on coefficients of orthogonalized basis columns and the raw
    coefficients are a linear map of those.
    """
    jac = np.eye(spec.n_params)
    if spec.baseline == "exp":
        jac[0, 0] = np.exp(vec[0])
    elif spec.baseline == "wei":
        jac[0, 0] = np.exp(vec[0])
        jac[1, 1] = np.exp(vec[1])
    elif spec.baseline == "gom":
        jac[0, 0] = np.exp(vec[0])
    else:
        nb = spec.n_baseline_params
        # raw_cols = T^-1 a, raw0 = a0 - center . raw_cols
        tinv = solve_triangular(transform, np.eye(nb - 1), lower=False)
        jac[1:nb, 1:nb] = tinv
        jac[0, 1:nb] = -center @ tinv
    jac[-1, -1] = np.exp(vec[-1])
    return jac


def _scaled_to_raw_coefs(vec: np.ndarray, nb: int,
                         center: np.ndarray, transform: np.ndarray) -> np.ndarray:
    out = np.array(vec, dtype=float, copy=True)
    cols = solve_triangular(transform, vec[1:nb], lower=False)
    out[1:nb] = cols
    out[0] = vec[0] - float(np.dot(cols, center))
    return out


def _raw_to_scaled_coefs(vec: np.ndarray, nb: int,
                         center: np.ndarray, transform: np.ndarray) -> np.ndarray:
    out = np.array(vec, dtype=float, copy=True)
    out[1:nb] = transform @ vec[1:nb]
    out[0] = vec[0] + float(np.dot(vec[1:nb], center))
    return out


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
    orthogonal columns of unit root-mean-square. The optimizer works on
    coefficients of these columns; raw truncated-power coefficients with
    nearby knots are so collinear that the numerical Hessian of the raw
    (or merely rescaled) parameterization picks up spurious negative
    eigenvalues at any finite-difference step.
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
    center: np.ndarray | None
    transform: np.ndarray | None
    d_range: np.ndarray = field(init=False)

    def __post_init__(self):
        self.d_range = np.arange(int(self.events_per_cluster.max()) + 1, dtype=float)

    def raw_to_scaled(self, spec: ModelSpec, vec: np.ndarray) -> np.ndarray:
        if spec.baseline != "rp" or self.transform is None:
            return np.asarray(vec, dtype=float)
        return _raw_to_scaled_coefs(vec, spec.n_baseline_params, self.center, self.transform)

    def scaled_to_raw(self, spec: ModelSpec, vec: np.ndarray) -> np.ndarray:
        if spec.baseline != "rp" or self.transform is None:
            return np.asarray(vec, dtype=float)
        return _scaled_to_raw_coefs(vec, spec.n_baseline_params, self.center, self.transform)


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
    cluster = np.asarray(data.cluster, dtype=np.int64)
    n_clusters = int(cluster.max()) + 1
    logt = np.log(t)
    B = Bd = center = transform = None
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
            Bd = solve_triangular(transform, Bd.T, lower=False, trans="T").T
    return _Prepared(
        t=t,
        logt=logt,
        x=np.asarray(data.treat, dtype=float),
        d=d,
        cluster=cluster,
        n_clusters=n_clusters,
        events_per_cluster=np.bincount(cluster, weights=d, minlength=n_clusters),
        basis=basis,
        B=B,
        Bd=Bd,
        center=center,
        transform=transform,
    )


def _dlog_expm1_over(v: np.ndarray) -> np.ndarray:
    """d/dv log(expm1(v)/v) = 1/(1 - e^-v) - 1/v, with the v -> 0 limit handled."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 1e-4
    safe = np.where(small, 1.0, v)
    return np.where(small, 0.5 + v / 12.0, -1.0 / np.expm1(-safe) - 1.0 / safe)


def _log_h_and_H(prep: _Prepared, spec: ModelSpec, vec: np.ndarray):
    """Row-wise log conditional hazard, conditional cumulative hazard, and
    the derivatives of log h and log H in vec[:nb + 1] (baseline and beta),
    one row per subject.

    log h may be -inf (flagging a nonpositive RP hazard slope); H may
    overflow to inf. Both are handled by the likelihood wrappers.
    """
    nb = spec.n_baseline_params
    xb = prep.x * vec[nb]
    ones = np.ones_like(prep.t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.baseline == "exp":
            log_h = vec[0] + xb
            H = np.exp(vec[0] + xb) * prep.t
            dlog_H = dlog_h = np.column_stack((ones, prep.x))
        elif spec.baseline == "wei":
            shape = np.exp(vec[1])
            log_h = vec[0] + vec[1] + (shape - 1.0) * prep.logt + xb
            H = np.exp(vec[0] + shape * prep.logt + xb)
            dlog_H = np.column_stack((ones, shape * prep.logt, prep.x))
            dlog_h = np.column_stack((ones, 1.0 + shape * prep.logt, prep.x))
        elif spec.baseline == "gom":
            gamma = vec[1]
            log_h = vec[0] + gamma * prep.t + xb
            H = np.exp(vec[0] + xb) * prep.t * _expm1_over(gamma * prep.t)
            dlog_H = np.column_stack((ones, prep.t * _dlog_expm1_over(gamma * prep.t), prep.x))
            dlog_h = np.column_stack((ones, prep.t, prep.x))
        else:
            coef = vec[1:nb]
            s = vec[0] + prep.B @ coef
            sp = prep.Bd @ coef
            logH = s + xb
            log_h = np.where(sp > 0, np.log(np.where(sp > 0, sp, 1.0)) - prep.logt + logH, -np.inf)
            H = np.exp(logH)
            dlog_H = np.column_stack((ones, prep.B, prep.x))
            dlog_h = dlog_H.copy()
            dlog_h[:, 1:nb] += prep.Bd / sp[:, None]
    return log_h, H, dlog_h, dlog_H


def _lognormal_clusters(D: np.ndarray, V: np.ndarray, var: float, rule):
    """Log-Normal cluster terms by adaptive Gauss-Hermite, with their exact
    derivatives in V and in log var.

    The derivatives are those of the quadrature sum itself, not of the
    integral it approximates: the nodes mode + scale*z move with V and var
    through the Wright omega w = var*curv - 1 of lognormal_laplace, whose
    derivative in its argument log(var*V) + var*D is w/(1 + w).
    """
    with np.errstate(divide="ignore"):
        log_V = np.log(V)
    const = -0.5 * np.log(2.0 * np.pi * var)

    def log_f(eta: np.ndarray) -> np.ndarray:
        # e^eta * V as one exponential: 0, not inf * 0, where V underflowed
        with np.errstate(over="ignore", invalid="ignore"):
            return eta * D - np.exp(eta + log_V) - eta * eta / (2.0 * var) + const

    laplace = lognormal_laplace(D, V, 0.0, var)
    logs, eta, weight = adaptive_gh_batch(log_f, rule, laplace)
    mode, curv = laplace
    w = var * curv - 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        e_eta = np.exp(eta)
        # l'(eta) at each node, and its posterior means without and with
        # the node offset eta - mode
        dl = D - np.exp(eta + log_V) - eta / var
        mean_dl = np.sum(weight * dl, axis=0)
        mean_dl_off = np.sum(weight * dl * (eta - mode), axis=0)
        # d w / dV = var e^mode / (1 + w) needs no division by V. At V = 0
        # with var*D > 709 it overflows and the score is not finite; the
        # optimizer treats such a point as infeasible.
        w_V = var * np.exp(mode) / (1.0 + w)
        w_u = w / (1.0 + w) * (1.0 + var * D)
        # mode = var*D - w, log scale = (log 2 + log var - log(1 + w)) / 2
        log_scale_V = -0.5 * w_V / (1.0 + w)
        log_scale_u = 0.5 - 0.5 * w_u / (1.0 + w)
        g_V = (-np.sum(weight * e_eta, axis=0) - w_V * mean_dl
               + log_scale_V * (mean_dl_off + 1.0))
        g_u = (np.sum(weight * eta * eta, axis=0) / (2.0 * var) - 0.5
               + (var * D - w_u) * mean_dl + log_scale_u * (mean_dl_off + 1.0))
    return logs, g_V, g_u


def _loglik_core(prep: _Prepared, spec: ModelSpec, vec: np.ndarray) -> tuple[float, np.ndarray]:
    """Marginal log-likelihood and its score (gradient in vec).

    A non-finite log-likelihood reads -inf, with a score of NaNs.
    """
    infeasible = -np.inf, np.full(vec.size, np.nan)
    log_h, H, dlog_h, dlog_H = _log_h_and_H(prep, spec, vec)
    event_log_h = log_h[prep.d]
    if not (np.isfinite(event_log_h).all() and np.isfinite(H).all()):
        return infeasible
    V = np.bincount(prep.cluster, weights=H, minlength=prep.n_clusters)
    D = prep.events_per_cluster
    var = np.exp(vec[-1])
    # g_V and g_u: each cluster term's derivatives in V and in log var
    if spec.frailty is FrailtyFamily.GAMMA:
        # log Gamma(1/v + D) - log Gamma(1/v) + D log v telescopes to
        # sum_{j<D} log(1 + j v), which is stable for every v > 0
        jv = var * prep.d_range[:-1]
        ratio_terms = np.concatenate(([0.0], np.cumsum(np.log1p(jv))))
        ratio_slopes = np.concatenate(([0.0], np.cumsum(jv / (1.0 + jv))))
        Di = D.astype(np.int64)
        log1p_vV = np.log1p(var * V)
        cluster_logs = ratio_terms[Di] - (1.0 / var + D) * log1p_vV
        g_V = -(1.0 + var * D) / (1.0 + var * V)
        g_u = ratio_slopes[Di] + log1p_vV / var + g_V * V
    else:
        cluster_logs, g_V, g_u = _lognormal_clusters(D, V, var, gh_rule(spec.gh_nodes))
    ll = float(event_log_h.sum()) + float(cluster_logs.sum())
    # optimizer excursions (an extreme log variance, every H underflowing)
    # can leave non-finite cluster terms; they are infeasible points
    if not np.isfinite(ll):
        return infeasible
    score = np.empty(vec.size)
    score[:-1] = dlog_h[prep.d].sum(axis=0) + (g_V[prep.cluster] * H) @ dlog_H
    score[-1] = g_u.sum()
    return ll, score


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


def _score_hessian(prep: _Prepared, spec: ModelSpec, vec: np.ndarray) -> np.ndarray:
    """Hessian of the negated log-likelihood by central differences of the
    score: 2k score evaluations. Non-finite where a neighbour is infeasible."""
    steps = _HESS_STEP * (1.0 + np.abs(vec))
    hess = np.empty((vec.size, vec.size))
    for k, h in enumerate(steps):
        step = np.zeros_like(vec)
        step[k] = h
        hess[k] = (_loglik_core(prep, spec, vec - step)[1]
                   - _loglik_core(prep, spec, vec + step)[1]) / (2.0 * h)
    return 0.5 * (hess + hess.T)


@dataclass
class FitResult:
    """Everything a downstream consumer needs from one maximum-likelihood fit.

    ``trans`` and ``cov_trans`` live on the optimizer scale (orthogonalized
    spline coefficients for rp baselines); ``trans_raw``, ``params``,
    ``se_natural`` and ``cov_natural`` are on the reporting scales.
    ``n_evaluations`` counts the optimizer's evaluations over all starts,
    each one of the log-likelihood and its score together; the 2k score
    evaluations of the Hessian are not counted. ``grad_inf_norm`` is the
    largest absolute score entry at the optimum.
    """

    spec: ModelSpec
    params: ModelParams
    trans: np.ndarray
    trans_raw: np.ndarray
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
    basis_center: np.ndarray | None = None
    basis_transform: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return self.trans.size

    def params_from_trans(self, vec: np.ndarray) -> ModelParams:
        """Rebuild natural-scale parameters from an optimizer-scale vector."""
        vec = np.asarray(vec, dtype=float)
        if self.spec.baseline == "rp":
            vec = _scaled_to_raw_coefs(vec, self.spec.n_baseline_params,
                                       self.basis_center, self.basis_transform)
        return unpack_params(self.spec, vec, basis=self.basis)

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

    BFGS with the analytic score from three deterministic starts (one per
    frailty-variance guess), keeping the best optimum. The Hessian is central
    differences of the score at that optimum. ``start`` replaces the start
    list with a single vector on the raw transformed scale (a FitResult's
    ``trans_raw``), which is how warm starts such as bootstrap refits are
    done.
    """
    prep = _prepare(spec, data)
    raw_starts = [np.asarray(start, dtype=float)] if start is not None else _starting_points(spec, prep)
    starts = [prep.raw_to_scaled(spec, s) for s in raw_starts]

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        ll, score = _loglik_core(prep, spec, vec)
        if np.isfinite(score).all():
            return -ll, -score
        # infeasible (NaN score), or a score that overflowed where a V
        # underflowed: a flat penalty sends the line search back
        return _PENALTY, np.zeros_like(vec)

    best = None
    n_evaluations = n_iterations = 0
    messages = []
    for x0 in starts:
        if x0.shape != (spec.n_params,):
            raise ValueError(f"start must have {spec.n_params} entries, got {x0.shape}")
        res = minimize(objective, x0, jac=True, method="BFGS",
                       options={"gtol": 1e-7, "maxiter": max_iter})
        n_evaluations += int(res.nfev)
        n_iterations += int(res.nit)
        messages.append(str(res.message))
        if best is None or res.fun < best.fun:
            best = res
    best_x = best.x
    loglik = -best.fun if best.fun < _PENALTY / 2 else -np.inf
    grad_inf_norm = float(np.max(np.abs(best.jac)))
    grad_ok = np.isfinite(loglik) and grad_inf_norm <= 1e-5 * (1.0 + abs(loglik))

    hessian = _score_hessian(prep, spec, best_x)
    hessian_pd = False
    cov_trans = None
    cond = np.nan
    if np.isfinite(hessian).all():
        try:
            chol = np.linalg.cholesky(hessian)
            hessian_pd = True
            inv_chol = np.linalg.inv(chol)
            cov_trans = inv_chol.T @ inv_chol
            cond = float(np.linalg.cond(hessian))
        except np.linalg.LinAlgError:
            hessian_pd = False
    converged = bool(grad_ok and hessian_pd)

    jac = _natural_jacobian(spec, best_x, prep.center, prep.transform)
    if cov_trans is not None:
        cov_trans = 0.5 * (cov_trans + cov_trans.T)
        se_trans = np.sqrt(np.diag(cov_trans))
        cov_natural = jac @ cov_trans @ jac.T
        se_natural = np.sqrt(np.diag(cov_natural))
    else:
        se_trans = np.full(spec.n_params, np.nan)
        se_natural = np.full(spec.n_params, np.nan)
        cov_natural = None

    trans_raw = prep.scaled_to_raw(spec, best_x)
    params = unpack_params(spec, trans_raw, basis=prep.basis)
    return FitResult(
        spec=spec,
        params=params,
        trans=best_x,
        trans_raw=trans_raw,
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
        n_evaluations=n_evaluations,
        n_iterations=n_iterations,
        n_obs=data.n_subjects,
        n_events=data.n_events,
        basis=prep.basis,
        message="; ".join(dict.fromkeys(messages)),
        basis_center=prep.center,
        basis_transform=prep.transform,
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
