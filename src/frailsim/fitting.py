"""Marginal maximum likelihood for shared-frailty survival models.

Baselines: exponential, Weibull, Gompertz, or a Royston-Parmar restricted
cubic spline of log time (df in {3, 5, 9}). Frailty: Gamma (closed-form
marginal likelihood) or log-Normal (adaptive Gauss-Hermite marginalization).

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
"""
from __future__ import annotations

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

# a start ends when its Newton decrement g'H^-1 g is at most this times
# 1 + |loglik|: the loglik is then within half of it of the quadratic
# model's maximum. A shifted step that predicts no more gain than that ends
# it too.
_DECREMENT = 1e-12
_DECREMENT_STOP = f"Newton decrement at most {_DECREMENT:g}*(1+|loglik|)"
_GAIN_STOP = "a step predicted a gain below half the decrement tolerance"
_FALLBACK = "first start not converged, fallback starts ran"
# the smallest ratio of actual to predicted fall that takes a Newton step,
# and the least Levenberg-Marquardt shift after a rejected step, relative
# to the Hessian's largest diagonal entry
_MIN_RATIO = 1e-4
_LAM_FLOOR = 1e-3


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
    so collinear that BFGS, the optimizer before the Newton fit, which
    starts from an identity inverse Hessian, conditioned badly on their
    coefficients: on the raw coefficients, the study's 90 scenarios at
    reps 0-2 (1,620 rp fits) had 2 fits that did not converge and 13 that
    needed the fallback starts, against none here, and 14% more evaluations
    (at most 379 in a fit, against 109). Newton steps do not depend on the
    basis in exact arithmetic, but the shift of a rejected step and the
    floating-point solves do.

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
    return np.where(small, 1.0 / 12.0 - v2 / 240.0 + v2 * v2 / 6048.0,
                    1.0 / (safe * safe) - 0.25 / np.sinh(0.5 * safe) ** 2)


def _log_h_and_H(prep: _Prepared, spec: ModelSpec, vec: np.ndarray):
    """The sum of log h over the event rows, the row-wise conditional
    cumulative hazard H, the sum of d log h over the event rows, and the
    row-wise d log H, the derivatives in vec[:nb + 1] (baseline and beta).

    The log h sum may be -inf (flagging a nonpositive RP hazard slope at an
    event) or NaN; H may overflow to inf. Both are handled by the callers.
    d log H may be prep.design itself, which callers must not modify. The
    caller enters np.errstate.
    """
    nb = spec.n_baseline_params
    theta = vec[:nb + 1]
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


def _lognormal_clusters(D: np.ndarray, V: np.ndarray, var: float, rule,
                        curvature: bool = False):
    """Log-Normal cluster terms by adaptive Gauss-Hermite, with their exact
    derivatives g_V in V and g_u in u = log var, and with curvature=True
    also g_VV, g_Vu and g_uu. The caller enters np.errstate.

    The derivatives are those of the quadrature sum itself, not of the
    integral it approximates. The nodes are eta_j = m + t_j, t_j = s*z_j,
    around the mode m of l(eta) = eta*D - e^eta*V - eta^2/(2 var) - log(2 pi
    var)/2, at scale s = sqrt(2 var/(1 + w)), where w = var*V*e^m is the
    Wright omega of lognormal_laplace. Since l'(m) = 0 and -l''(m) = 2/s^2,
    l(eta_j) + z_j^2 = l(m) + R_j with R_j = -A psi(t_j), A = e^m*V = w/var
    and psi(t) = e^t - 1 - t - t^2/2; so the sum is log s + l(m) + log sum_j
    q_j e^R_j, with q_j the rule's weights, whose normalised terms are the
    posterior weights p_j. Its first derivatives are (log s)_a + l_a(m) +
    E_p[R_a], and its second (log s)_ab + l_ab(m) + l_a'(m) m_b + E_p[R_ab]
    + Cov_p(R_a, R_b). Every term is small where the frailty variance is,
    so g_u keeps its relative precision as var -> 0, where the derivatives
    of l(eta_j) would be a difference of O(1) terms.

    m and s move with V and u through w, the Wright omega of log(var*V) +
    var*D, whose first and second derivatives in that argument are w/(1 + w)
    and w/(1 + w)^3; w/V enters as var*e^m, so nothing divides by V.
    """
    const = -0.5 * np.log(2.0 * np.pi * var)

    def log_f(eta: np.ndarray) -> np.ndarray:
        # e^eta * V as one exponential: 0, not inf * 0, where V underflowed
        return eta * D - np.exp(eta + log_V) - eta * eta / (2.0 * var) + const

    log_V = np.log(V)
    laplace = lognormal_laplace(D, V, 0.0, var)
    logs, eta, weight = adaptive_gh_batch(log_f, rule, laplace)
    mode, curv = laplace
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
    A_u = A * mode / one_w
    # R = -A psi(t) with d t = (log s)_a t, so R_a = -(A_a psi + A (log s)_a
    # psi'(t) t): each derivative of R is a per-cluster combination of psi,
    # psi'(t) t and psi''(t) t^2, and its posterior moments are those of
    # these three node arrays
    t = eta - mode
    em1 = np.expm1(t)
    t2 = t * t
    psi1_t = (em1 - t) * t
    psi = em1 - t - 0.5 * t2

    def mean(x: np.ndarray) -> np.ndarray:
        return (weight * x).sum(axis=0)

    m0, m1 = mean(psi), mean(psi1_t)
    B_V, B_u = A * log_s_V, A * log_s_u
    # l_V(m) = -e^m, l_u(m) = m^2/(2 var) - 1/2
    g_V = log_s_V - e_mode - (A_V * m0 + B_V * m1)
    g_u = mode * mode / (2.0 * var) - 0.5 * w_u / one_w - (A_u * m0 + B_u * m1)
    if not curvature:
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
    A_uu = (A_u * mode + A * (m_u - mode * w_u / one_w)) / one_w
    m2 = mean(em1 * t2)
    psi -= m0
    psi1_t -= m1
    v00, v01, v11 = mean(psi * psi), mean(psi * psi1_t), mean(psi1_t * psi1_t)

    def second(A_ab, A_a, A_b, B_a, B_b, ls_a, ls_b, ls_ab):
        """E_p[R_ab] + Cov_p(R_a, R_b)."""
        return (A_a * A_b * v00 + (A_a * B_b + A_b * B_a) * v01 + B_a * B_b * v11
                - A_ab * m0 - (A_a * ls_b + A_b * ls_a + A * (ls_ab + ls_a * ls_b)) * m1
                - B_a * ls_b * m2)

    # l_VV = 0 and l_V' = -e^m; l_uu = -m^2/(2 var) and l_u' = m/var
    g_VV = (log_s_VV + e_mode * w_V
            + second(A_VV, A_V, A_V, B_V, B_V, log_s_V, log_s_V, log_s_VV))
    g_Vu = (log_s_Vu - e_mode * m_u
            + second(A_Vu, A_V, A_u, B_V, B_u, log_s_V, log_s_u, log_s_Vu))
    g_uu = (log_s_uu + mode * (m_u - 0.5 * mode) / var
            + second(A_uu, A_u, A_u, B_u, B_u, log_s_u, log_s_u, log_s_uu))
    return logs, g_V, g_u, g_VV, g_Vu, g_uu


def _log1p_gap(x: np.ndarray) -> np.ndarray:
    """1/(1 + x) - log1p(x)/x for x >= 0; below x = 0.01, where that
    difference cancels, its series -x/2 + 2x^2/3 - 3x^3/4 + ... The
    series is evaluated at every x and may overflow at a large one, so the
    caller enters np.errstate."""
    small = x < 0.01
    safe = np.where(small, 1.0, x)
    return np.where(small, x * (-1.0 / 2.0 + x * (2.0 / 3.0 + x * (-3.0 / 4.0 + x * (
        4.0 / 5.0 + x * (-5.0 / 6.0 + x * (6.0 / 7.0 + x * (-7.0 / 8.0 + x * 8.0 / 9.0))))))),
                    1.0 / (1.0 + safe) - np.log1p(safe) / safe)


def _gamma_clusters(D: np.ndarray, V: np.ndarray, var: float, d_range: np.ndarray,
                    curvature: bool = False):
    """Gamma cluster terms in closed form, with their derivatives g_V in V
    and g_u in u = log var, and with curvature=True also g_VV, g_Vu and
    g_uu. d_range is 0, 1, ..., max(D).

    g_u and g_uu are O(var) as var -> 0, while log1p(var*V)/var and V/(1 +
    var*V) are O(V); their difference is taken as V * _log1p_gap(var*V),
    so that it keeps its relative precision at a frailty variance near 0.
    """
    jv = var * d_range[:-1]
    one_jv = 1.0 + jv
    Di = D.astype(np.int64)

    def below_D(terms: np.ndarray) -> np.ndarray:
        """sum_{j<D} terms_j for each cluster."""
        return np.concatenate(([0.0], np.cumsum(terms)))[Di]

    var_D = var * D
    vV = var * V
    one_vV = 1.0 + vV
    V_gap = V * _log1p_gap(vV)
    # log Gamma(1/v + D) - log Gamma(1/v) + D log v telescopes to
    # sum_{j<D} log(1 + j v), which is stable for every v > 0
    cluster_logs = below_D(np.log1p(jv)) - (1.0 / var + D) * np.log1p(vV)
    g_V = -(1.0 + var_D) / one_vV
    g_u = below_D(jv / one_jv) - V_gap - var_D * V / one_vV
    if not curvature:
        return cluster_logs, g_V, g_u
    g_VV = -var * g_V / one_vV
    g_Vu = -var * (D - V) / one_vV**2
    g_uu = below_D(jv / one_jv**2) + V_gap + g_Vu * V
    return cluster_logs, g_V, g_u, g_VV, g_Vu, g_uu


def _cluster_terms(spec: ModelSpec, D: np.ndarray, V: np.ndarray, var: float,
                   d_range: np.ndarray, curvature: bool = False):
    """Each cluster's log marginal term given its event count D and
    cumulative hazard V, with its derivatives g_V in V and g_u in log var,
    and with curvature=True also g_VV, g_Vu and g_uu."""
    if spec.frailty is FrailtyFamily.GAMMA:
        return _gamma_clusters(D, V, var, d_range, curvature)
    return _lognormal_clusters(D, V, var, gh_rule(spec.gh_nodes), curvature)


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
        log_h_sum, H, dlog_h_sum, dlog_H = _log_h_and_H(prep, spec, vec)
        ll = -np.inf
        if np.isfinite(log_h_sum) and np.isfinite(H).all():
            V = np.bincount(prep.cluster, weights=H, minlength=prep.n_clusters)
            terms = _cluster_terms(spec, prep.events_per_cluster, V, np.exp(vec[-1]),
                                   prep.d_range, information)
            ll = log_h_sum + float(terms[0].sum())
        # optimizer excursions (an extreme log variance, every H underflowing)
        # can leave non-finite cluster terms; they are infeasible points
        if not np.isfinite(ll):
            nan = np.full(k, np.nan)
            return (-np.inf, nan, np.full((k, k), np.nan)) if information else (-np.inf, nan)
        g_V, g_u = terms[1:3]
        w = g_V[prep.cluster] * H
        score = np.empty(k)
        score[:-1] = dlog_h_sum + w @ dlog_H
        score[-1] = g_u.sum()
        if not information:
            return ll, score
        g_VV, g_Vu, g_uu = terms[3:]
        # dV_i, one row per cluster: a single bincount over (cluster, column)
        cells = prep.cluster[:, None] * (k - 1) + np.arange(k - 1)
        dV = np.bincount(cells.ravel(), weights=(dlog_H * H[:, None]).ravel(),
                         minlength=prep.n_clusters * (k - 1)).reshape(prep.n_clusters, k - 1)
        block = (dlog_H * w[:, None]).T @ dlog_H + (dV * g_VV[:, None]).T @ dV
        nb = spec.n_baseline_params
        if spec.baseline == "wei":
            block[1, 1] += np.exp(vec[1]) * (prep.event_design[1] + w @ prep.logt)
        elif spec.baseline == "gom":
            block[1, 1] += w @ (prep.t**2 * _d2log_expm1_over(vec[1] * prep.t))
        elif spec.baseline == "rp":
            q = prep.event_Bd / (prep.event_Bd @ vec[1:nb])[:, None]
            block[1:nb, 1:nb] -= q.T @ q
        hess = np.empty((k, k))
        hess[:-1, :-1] = block
        hess[-1, :-1] = hess[:-1, -1] = g_Vu @ dV
        hess[-1, -1] = g_uu.sum()
    return ll, score, -hess


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
    that ran (one, or all three after a fallback), each one ``_loglik_core``
    pass that gives the log-likelihood, its score and the observed
    information together, the start and every trial step included; the
    Hessian of the fit is the information of its last iterate, so it costs
    no further pass. ``n_iterations`` counts the Newton steps taken, that
    is the trials that were not rejected. ``grad_inf_norm`` is the largest
    absolute score entry at the optimum. ``message`` joins the distinct
    reasons the starts that ran stopped, those of ``_newton``: "Newton
    decrement at most 1e-12*(1+|loglik|)", "a step predicted a gain below
    half the decrement tolerance", "max_iter (N) steps taken" or "start is
    infeasible"; after a fallback it also says "first start not converged,
    fallback starts ran".
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
    """Where one Newton run ended: the point, the objective, its gradient
    and its Hessian there (f = inf at an infeasible point), the objective
    calls and accepted steps it took, and why it stopped."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    hess: np.ndarray
    nfev: int
    nit: int
    message: str


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of a, or None when a is not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _newton(fun, x0: np.ndarray, *, max_iter: int) -> _Run:
    """Minimize fun(x) -> (f, g, H) by Newton steps in Levenberg-Marquardt
    form from x0, with H the Hessian.

    Each trial step p solves (H + lam I) p = -g, with lam such that H + lam
    I has a Cholesky factor, and is taken when rho, the actual fall f(x) -
    f(x + p) over the predicted one -(g'p + p'Hp/2), exceeds _MIN_RATIO.
    lam starts at 0 and follows the
    ratio (Nielsen's rule; Madsen, Nielsen & Tingleff, Methods for
    Non-Linear Least Squares Problems, 2004): a taken step scales it by
    max(1/3, 1 - (2 rho - 1)^3), and a rejected one by 2, 4, 8, ... in
    turn, from at least _LAM_FLOOR times H's largest diagonal entry, which
    is also where lam doubles from while H + lam I is not positive definite.
    A point where f, g or H is not finite is infeasible (f = inf), so its
    trial is rejected. The run ends when an iterate's Newton decrement
    g'H^-1 g, at lam = 0, is at most tol = _DECREMENT (1 + |f|); when a step
    predicts, before its trial, a fall of at most tol/2 (the Newton step at
    lam = 0 predicts half the decrement, so only a shifted step can); after
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
        return _Run(x=x, fun=f, jac=g, hess=hess, nfev=nfev, nit=nit,
                    message="start is infeasible")
    eye = np.eye(x.size)
    lam, nu, new_iterate = 0.0, 2.0, True
    while True:
        tol = _DECREMENT * (1.0 + abs(f))
        if new_iterate:
            newton = np.linalg.solve(hess, -g) if _cholesky(hess) is not None else None
            if newton is not None and -(g @ newton) <= tol:
                message = _DECREMENT_STOP
                break
            if nit >= max_iter:
                message = f"max_iter ({max_iter}) steps taken"
                break
            floor = _LAM_FLOOR * (np.max(np.abs(np.diag(hess))) or 1.0)
        if lam == 0.0 and newton is not None:
            p = newton
        else:
            shifted = hess + lam * eye
            while lam < np.inf and _cholesky(shifted) is None:
                lam = max(2.0 * lam, floor)
                shifted = hess + lam * eye
            p = np.linalg.solve(shifted, -g)
        predicted = -(g @ p + 0.5 * (p @ hess @ p))
        if not predicted > 0.5 * tol:
            message = _GAIN_STOP
            break
        f_new, g_new, hess_new = evaluate(x + p)
        rho = (f - f_new) / predicted
        if rho > _MIN_RATIO:
            x, f, g, hess = x + p, f_new, g_new, hess_new
            nit += 1
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu, new_iterate = 2.0, True
        else:
            lam = max(lam * nu, floor)
            nu, new_iterate = 2.0 * nu, False
    return _Run(x=x, fun=f, jac=g, hess=hess, nfev=nfev, nit=nit, message=message)


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

    Newton steps in Levenberg-Marquardt form (``_newton``) on the analytic
    score and observed information, from the first of three deterministic
    starts (one per frailty-variance guess); every evaluation is one
    ``_loglik_core`` pass that returns the loglik with both. A start ends at
    the first iterate whose Newton decrement g'H^-1 g is at most
    1e-12 (1 + |loglik|), unless max_iter steps, an infeasible start or a
    shifted step that predicts a gain of at most half that end it first.
    The information of that last iterate is the fit's Hessian. Only when
    that optimum fails the convergence test (score inf-norm at most
    1e-5 (1 + |loglik|) and a positive-definite Hessian) do the other two
    starts run; each is assessed, and the converged start with the highest
    loglik is kept, or the highest loglik of all three when none converged.
    ``start`` replaces the start list with a single vector on the raw
    transformed scale (a FitResult's ``trans_raw``), which is how warm
    starts such as bootstrap refits are done.
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

    def objective(vec: np.ndarray):
        ll, score, info = _loglik_core(prep, spec, vec, information=True)
        return -ll, -score, info

    def run(x0: np.ndarray) -> _Run:
        return _newton(objective, x0, max_iter=max_iter)

    def assess(res: _Run):
        """(loglik, score inf-norm, covariance or None, condition number,
        converged) at the optimum of one start."""
        loglik = -res.fun
        grad_inf_norm = float(np.max(np.abs(res.jac)))
        grad_ok = np.isfinite(loglik) and grad_inf_norm <= 1e-5 * (1.0 + abs(loglik))
        cov, cond = None, np.nan
        chol = _cholesky(res.hess) if np.isfinite(res.hess).all() else None
        if chol is not None:
            inv_chol = np.linalg.inv(chol)
            cov = inv_chol.T @ inv_chol
            cov, cond = 0.5 * (cov + cov.T), float(np.linalg.cond(res.hess))
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
