"""Model declarations and assumption checking.

A drift is described by its vector field together with analytic first
and second derivatives and a declared bound m_f on both derivative
orders (the field itself may be unbounded).  A full model adds a bounded
perturbation drift, a square diffusion matrix and a declared ellipticity
constant.  All callables are vectorized: ``f(t, x)`` accepts ``x`` with
arbitrary leading batch axes and a scalar ``t``.

Index conventions: ``jac(t, x)[..., i, k] = dF_i/dx_k`` and
``hess(t, x)[..., i, j, k] = d2F_i/(dx_j dx_k)``, symmetric in (j, k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AssumptionError
from .sampling import sample_time_box

_EPS = np.finfo(float).eps
_FD_JAC_STEP = np.sqrt(_EPS)
_FD_HESS_STEP = np.cbrt(_EPS)
ASSUMPTION_TOL = 1e-9


@dataclass
class DriftSpec:
    """Smooth drift with analytic derivatives and the bound m_f on them."""

    f: Callable[[float, np.ndarray], np.ndarray]
    jac: Callable[[float, np.ndarray], np.ndarray]
    hess: Callable[[float, np.ndarray], np.ndarray]
    m_f: float
    dim: int
    name: str = ""
    jac_from_fd: bool = False
    hess_from_fd: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.m_f >= 0.0 and np.isfinite(self.m_f)):
            raise ValueError("m_f must be finite and nonnegative")


@dataclass
class ModelSpec:
    """Drift plus bounded perturbation, diffusion and ellipticity constant."""

    drift: DriftSpec
    bounded_drift: Callable[[float, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    lambda_: float
    dim: int
    horizon: float
    x0: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.dim)
        if self.lambda_ < 1.0:
            raise ValueError("ellipticity constant must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.drift.dim != self.dim:
            raise ValueError("drift dimension does not match model dimension")


@dataclass
class SamplingPlan:
    """Space-time sampling box used by assumption checks and scans."""

    t_span: tuple[float, float]
    lo: np.ndarray
    hi: np.ndarray
    n_samples: int = 256
    seed: int = 0

    def materialize(self):
        return sample_time_box(self.t_span, self.lo, self.hi,
                               self.n_samples, self.seed, include_ends=True)


@dataclass
class AssumptionEntry:
    passed: bool
    measured: dict
    detail: str = ""


@dataclass
class AssumptionReport:
    model_name: str
    entries: dict[str, AssumptionEntry]
    plan: SamplingPlan
    tolerance: float
    # Growth constant used by every Gronwall-type bound downstream.
    k_constant: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "k_constant": self.k_constant,
            "plan": {
                "t_span": [float(self.plan.t_span[0]), float(self.plan.t_span[1])],
                "lo": np.asarray(self.plan.lo, dtype=float).tolist(),
                "hi": np.asarray(self.plan.hi, dtype=float).tolist(),
                "n_samples": self.plan.n_samples,
                "seed": self.plan.seed,
            },
            "entries": {
                name: {"passed": e.passed, "measured": e.measured, "detail": e.detail}
                for name, e in self.entries.items()
            },
        }


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _per_time(fn, t, ys: np.ndarray) -> np.ndarray:
    """fn(t_k, rows) once per distinct time t_k of t, a scalar or one
    time per row of ys, reassembled in row order."""
    ts = np.full(ys.shape[:1], t, dtype=float)
    order = np.argsort(ts, kind="stable")
    cuts = np.flatnonzero(np.diff(ts[order])) + 1
    parts = [np.asarray(fn(float(ts[i[0]]), ys[i])) for i in np.split(order, cuts)]
    out = np.empty(ys.shape[:1] + parts[0].shape[1:])
    out[order] = np.concatenate(parts)
    return out


def fd_jacobian(f, t: float, x: np.ndarray) -> np.ndarray:
    """Centered-difference Jacobian of f at (t, x), step sqrt(eps)*max(1,|x_k|)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = _FD_JAC_STEP * np.maximum(1.0, np.abs(x))
    cols = []
    for k in range(d):
        e = np.zeros_like(x)
        e[..., k] = h[..., k]
        cols.append((f(t, x + e) - f(t, x - e)) / (2.0 * h[..., k, None]))
    return np.stack(cols, axis=-1)


def fd_hessian(f, t: float, x: np.ndarray) -> np.ndarray:
    """Centered second differences of f, step cbrt(eps)*max(1,|x_k|)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = _FD_HESS_STEP * np.maximum(1.0, np.abs(x))
    f0 = f(t, x)
    out = np.empty(x.shape + (d, d))
    for j in range(d):
        ej = np.zeros_like(x)
        ej[..., j] = h[..., j]
        out[..., j, j] = ((f(t, x + ej) - 2.0 * f0 + f(t, x - ej))
                          / np.square(h[..., j, None]))
        for k in range(j):
            ek = np.zeros_like(x)
            ek[..., k] = h[..., k]
            mixed = (f(t, x + ej + ek) - f(t, x + ej - ek)
                     - f(t, x - ej + ek) + f(t, x - ej - ek)) \
                / (4.0 * h[..., j, None] * h[..., k, None])
            out[..., j, k] = mixed
            out[..., k, j] = mixed
    return out


def drift_from_function(f, dim: int, m_f: float, jac=None, hess=None,
                        name: str = "") -> DriftSpec:
    """Build a DriftSpec from a bare vector field.

    Missing derivatives fall back to centered finite differences and the
    spec is flagged accordingly, which assumption reports surface.
    """
    jac_fd = jac is None
    hess_fd = hess is None
    if jac is None:
        jac = lambda t, x: fd_jacobian(f, t, x)
    if hess is None:
        hess = lambda t, x: fd_hessian(f, t, x)
    return DriftSpec(f=f, jac=jac, hess=hess, m_f=m_f, dim=dim, name=name,
                     jac_from_fd=jac_fd, hess_from_fd=hess_fd)


def check_assumptions(model: ModelSpec, plan: SamplingPlan | None = None,
                      tol: float = ASSUMPTION_TOL) -> AssumptionReport:
    """Sample the model over a space-time box and test the standing
    assumptions: uniform ellipticity against the declared constant,
    derivative bounds against m_f, boundedness of the perturbation.

    Every callable is evaluated once per distinct sample time on all
    samples at that time.  Any non-finite evaluation fails the
    corresponding entry and records the first offending (t, x) in
    sample order.
    """
    if plan is None:
        plan = SamplingPlan(t_span=(0.0, model.horizon),
                            lo=model.x0 - 2.0, hi=model.x0 + 2.0)
    ts, xs = plan.materialize()
    n, d = ts.size, model.dim
    entries: dict[str, AssumptionEntry] = {}

    sig = _per_time(model.sigma, ts, xs).reshape(n, d, d)
    a = sig @ sig.transpose(0, 2, 1)
    jac = _per_time(model.drift.jac, ts, xs).reshape(n, d, d)
    hess = _per_time(model.drift.hess, ts, xs).reshape(n, d, d, d)
    mv = _per_time(model.bounded_drift, ts, xs).reshape(n, d)

    def first_bad(*arrs):
        ok = np.all([np.isfinite(v.reshape(n, -1)).all(axis=1) for v in arrs], axis=0)
        if ok.all():
            return None
        i = int(np.argmin(ok))
        return f"t={float(ts[i])}, x={xs[i].tolist()}"

    lam = model.lambda_
    bad = first_bad(a)
    if bad:
        entries["a1"] = AssumptionEntry(False, {}, f"non-finite diffusion at {bad}")
    else:
        w = np.linalg.eigvalsh(a)
        eig_min, eig_max = float(w[:, 0].min()), float(w[:, -1].max())
        ok = (eig_max <= lam + tol) and (eig_min >= 1.0 / lam - tol)
        entries["a1"] = AssumptionEntry(ok, {
            "declared_lambda": lam,
            "eig_min": eig_min, "eig_max": eig_max,
        }, "" if ok else "sampled diffusion eigenvalues escape the declared band")

    bad = first_bad(jac, hess)
    if bad:
        entries["a2"] = AssumptionEntry(False, {}, f"non-finite derivative at {bad}")
    else:
        jac_sup = float(_spectral_norms(jac).max())
        hess_sup = float(_spectral_norms(hess).max())
        asym_max = float(np.abs(hess - hess.swapaxes(-1, -2)).max())
        ok = (jac_sup <= model.drift.m_f + tol) and (hess_sup <= model.drift.m_f + tol)
        detail = "" if ok else "sampled derivative norms exceed m_f"
        if model.drift.jac_from_fd or model.drift.hess_from_fd:
            detail = (detail + " " if detail else "") + "derivatives from finite differences"
        entries["a2"] = AssumptionEntry(ok, {
            "m_f": model.drift.m_f,
            "jac_norm_sup": jac_sup, "hess_norm_sup": hess_sup,
            "hess_asymmetry_max": asym_max,
            "jac_from_fd": model.drift.jac_from_fd,
            "hess_from_fd": model.drift.hess_from_fd,
        }, detail.strip())

    bad = first_bad(mv)
    if bad:
        entries["a3"] = AssumptionEntry(False, {}, f"non-finite perturbation at {bad}")
    else:
        # Row-by-row dot products, the arithmetic of np.linalg.norm on one
        # vector (norm(axis=1) sums the squares in another order).
        m_sup = float(np.sqrt((mv[:, None, :] @ mv[:, :, None]).max()))
        entries["a3"] = AssumptionEntry(np.isfinite(m_sup), {"m_norm_sup": m_sup})

    return AssumptionReport(model_name=model.name or model.drift.name,
                            entries=entries, plan=plan, tolerance=tol,
                            k_constant=model.drift.m_f)


# ---------------------------------------------------------------------------
# Built-in models

def _constant(c: np.ndarray):
    """(t, x) -> c at every point of a batch x of states."""
    def const(t, x):
        return np.broadcast_to(c, np.shape(x)[:-1] + c.shape).copy()
    return const


def _resolve_sigma(sigma0, dim: int):
    s = np.asarray(sigma0, dtype=float)
    if s.ndim == 0:
        s = float(s) * np.eye(dim)
    if s.shape != (dim, dim):
        raise ValueError(f"sigma0 must be a scalar or a {dim}x{dim} matrix")
    a = s @ s.T
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0.0 or not np.all(np.isfinite(w)):
        raise AssumptionError("diffusion is not uniformly elliptic")
    lam = max(float(w[-1]), 1.0 / float(w[0]), 1.0)
    return s, lam


def _resolve_m0(m0, dim: int):
    m = np.asarray(m0, dtype=float)
    if m.ndim == 0:
        m = np.full(dim, float(m))
    if m.shape != (dim,):
        raise ValueError(f"m0 must be a scalar or a length-{dim} vector")
    if not np.all(np.isfinite(m)):
        raise AssumptionError("perturbation drift must be bounded")
    return m


def _model(drift: DriftSpec, horizon, x0, m0, sigma0, x0_fill: float) -> ModelSpec:
    """A built-in model named after its drift: constant perturbation m0,
    constant diffusion sigma0, and x0 filled with x0_fill when None."""
    dim = drift.dim
    s, lam = _resolve_sigma(sigma0, dim)
    x0 = np.full(dim, x0_fill) if x0 is None else np.asarray(x0, dtype=float)
    return ModelSpec(drift=drift, bounded_drift=_constant(_resolve_m0(m0, dim)),
                     sigma=_constant(s), lambda_=lam, dim=dim,
                     horizon=float(horizon), x0=x0, name=drift.name)


def _zero_drift_model(dim=2, horizon=1.0, x0=None, m0=1.0, sigma0=1.0):
    drift = DriftSpec(f=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
                      jac=lambda t, x: np.zeros(np.shape(x) + (dim,)),
                      hess=lambda t, x: np.zeros(np.shape(x) + (dim, dim)),
                      m_f=0.0, dim=dim, name="zero_drift")
    return _model(drift, horizon, x0, m0, sigma0, 0.0)


def _linear_model(b=1.0, dim=None, horizon=1.0, x0=None, m0=1.0, sigma0=1.0):
    if callable(b):
        if dim is None:
            raise ValueError("dim is required when b is a callable")
        b_of_t = lambda t: np.asarray(b(t), dtype=float).reshape(dim, dim)
        m_f = None
    else:
        b_arr = np.asarray(b, dtype=float)
        if b_arr.ndim == 0:
            dim = 1 if dim is None else dim
            b_arr = float(b_arr) * np.eye(dim)
        elif dim is None:
            dim = b_arr.shape[0]
        if b_arr.shape != (dim, dim):
            raise ValueError(f"b must be scalar, callable or a {dim}x{dim} matrix")
        b_of_t = lambda t, _b=b_arr: _b
        m_f = float(np.linalg.svd(b_arr, compute_uv=False)[0])
    if m_f is None:
        # Coarse sweep; callers with sharper knowledge can wrap DriftSpec directly.
        m_f = max(float(np.linalg.svd(b_of_t(t), compute_uv=False)[0])
                  for t in np.linspace(0.0, horizon, 65))

    def f(t, x):
        return np.asarray(x, dtype=float) @ b_of_t(t).T

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(b_of_t(t), x.shape + (dim,)).copy()

    def hess(t, x):
        return np.zeros(np.shape(x) + (dim, dim))

    drift = DriftSpec(f=f, jac=jac, hess=hess, m_f=m_f, dim=dim, name="linear")
    return _model(drift, horizon, x0, m0, sigma0, 1.0)


def _sine_model(alpha=1.0, beta=1.0, dim=1, horizon=1.0, x0=None, m0=0.5, sigma0=1.0):
    alpha, beta = float(alpha), float(beta)
    if alpha < 0 or beta <= 0:
        raise ValueError("alpha must be >= 0 and beta > 0")
    idx = np.arange(dim)

    def f(t, x):
        return alpha * np.sin(beta * np.asarray(x, dtype=float))

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (dim,))
        out[..., idx, idx] = alpha * beta * np.cos(beta * x)
        return out

    def hess(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (dim, dim))
        out[..., idx, idx, idx] = -alpha * beta**2 * np.sin(beta * x)
        return out

    m_f = max(alpha * beta, alpha * beta**2)
    drift = DriftSpec(f=f, jac=jac, hess=hess, m_f=m_f, dim=dim, name="sine")
    return _model(drift, horizon, x0, m0, sigma0, 0.5)


def _logistic_model(a=1.0, horizon=1.0, x0=None, m0=0.5, sigma0=1.0):
    a = float(a)
    if a < 0:
        raise ValueError("a must be >= 0")

    def _s(x):
        # Stable logistic on both tails.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def f(t, x):
        x = np.asarray(x, dtype=float)
        return a * (_s(x) - 0.5)

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        s = _s(x)
        return (a * s * (1.0 - s))[..., None]

    def hess(t, x):
        x = np.asarray(x, dtype=float)
        s = _s(x)
        return (a * s * (1.0 - s) * (1.0 - 2.0 * s))[..., None, None]

    # sup|s'| = 1/4 dominates sup|s''| = 1/(6*sqrt(3)).
    drift = DriftSpec(f=f, jac=jac, hess=hess, m_f=a / 4.0, dim=1,
                      name="scalar_logistic_bounded")
    return _model(drift, horizon, x0, m0, sigma0, 0.0)


_BUILTINS = {
    "zero_drift": (_zero_drift_model, "no trend; transformed dynamics equal the original"),
    "linear": (_linear_model, "F(t,x) = b(t) x; flow Jacobian is state independent"),
    "sine": (_sine_model, "componentwise alpha*sin(beta*x); bounded derivatives, curved flow"),
    "scalar_logistic_bounded": (_logistic_model, "1-d centered logistic drift a*(s(x)-1/2)"),
}


def builtin_model(name: str, **params) -> ModelSpec:
    """Construct a built-in model by name; parameters are validated so
    every instance satisfies the standing assumptions."""
    try:
        factory, _ = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown model {name!r}; known models: {known}") from None
    return factory(**params)


def list_builtin_models() -> list[tuple[str, str]]:
    return [(name, doc) for name, (_, doc) in sorted(_BUILTINS.items())]
