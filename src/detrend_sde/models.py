"""Model declarations and assumption checking.

A drift is described by its vector field together with its first and
second derivatives and a declared bound m_f on both derivative orders
(the field itself may be unbounded).  Both derivatives are required and
analytic: the jet ODE integrates them into g_*, g_*^{-1} and c, and its
adaptive steps stall on finite-difference noise.  A full model adds a
bounded perturbation drift, a square diffusion matrix and a declared
ellipticity constant.  All callables are vectorized: ``f(t, x)`` accepts
``x`` with arbitrary leading batch axes, and ``t`` is either a float or
an array of shape ``x.shape[:-1] + (1,)``, one time per row.  That shape
makes ``t * x`` broadcast row by row; a flat array of one time per row
would broadcast along the last axis instead, silently wrong when it has
the length of a row.  Batches with per-row times (the flow solves of
rescaled rows, the assumption check, the boundedness scan) call each
callable once on the whole batch.

Index conventions: ``jac(t, x)[..., i, k] = dF_i/dx_k`` and
``hess(t, x)[..., i, j, k] = d2F_i/(dx_j dx_k)``, symmetric in (j, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionError
from .sampling import sample_time_box

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

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.m_f >= 0.0 and np.isfinite(self.m_f)):
            raise ValueError("m_f must be finite and nonnegative")


@dataclass
class ModelSpec:
    """Drift plus bounded perturbation, diffusion and ellipticity
    constant; the model's dimension is its drift's."""

    drift: DriftSpec
    bounded_drift: Callable[[float, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    lambda_: float
    horizon: float
    x0: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float).reshape(self.dim)
        if self.lambda_ < 1.0:
            raise ValueError("ellipticity constant must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dim(self) -> int:
        return self.drift.dim


@dataclass
class AssumptionEntry:
    passed: bool
    measured: dict
    detail: str = ""


@dataclass
class AssumptionReport:
    entries: dict[str, AssumptionEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())


def _spectral_norms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _sampling_box(model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The space box x0 +- 2 that the assumption check, the boundedness
    scan and the verify job sample."""
    return model.x0 - 2.0, model.x0 + 2.0


def check_assumptions(model: ModelSpec) -> AssumptionReport:
    """Sample the model over a space-time box and test the standing
    assumptions: uniform ellipticity against the declared constant,
    derivative bounds against m_f, boundedness of the perturbation.

    The samples are 256 quasi-random points of [0, horizon] x (x0 +- 2),
    seed 0, plus a few pinned to each end of the time span.  Every
    callable is evaluated once, on all samples, with one time per
    sample.  Any non-finite evaluation fails the corresponding entry and
    records the first offending (t, x) in sample order.
    """
    lo, hi = _sampling_box(model)
    ts, xs = sample_time_box((0.0, model.horizon), lo, hi, 256, 0,
                             include_ends=True)
    n, d = ts.size, model.dim
    entries: dict[str, AssumptionEntry] = {}

    t = ts[:, None]
    sig = np.asarray(model.sigma(t, xs), dtype=float).reshape(n, d, d)
    a = sig @ sig.transpose(0, 2, 1)
    jac = np.asarray(model.drift.jac(t, xs), dtype=float).reshape(n, d, d)
    hess = np.asarray(model.drift.hess(t, xs), dtype=float).reshape(n, d, d, d)
    mv = np.asarray(model.bounded_drift(t, xs), dtype=float).reshape(n, d)

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
        ok = (eig_max <= lam + ASSUMPTION_TOL) and (eig_min >= 1.0 / lam - ASSUMPTION_TOL)
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
        bound = model.drift.m_f + ASSUMPTION_TOL
        ok = jac_sup <= bound and hess_sup <= bound
        entries["a2"] = AssumptionEntry(ok, {
            "m_f": model.drift.m_f,
            "jac_norm_sup": jac_sup, "hess_norm_sup": hess_sup,
            "hess_asymmetry_max": asym_max,
        }, "" if ok else "sampled derivative norms exceed m_f")

    bad = first_bad(mv)
    if bad:
        entries["a3"] = AssumptionEntry(False, {}, f"non-finite perturbation at {bad}")
    else:
        # Row-by-row dot products, the arithmetic of np.linalg.norm on one
        # vector (norm(axis=1) sums the squares in another order).
        m_sup = float(np.sqrt((mv[:, None, :] @ mv[:, :, None]).max()))
        entries["a3"] = AssumptionEntry(np.isfinite(m_sup), {"m_norm_sup": m_sup})

    return AssumptionReport(entries=entries)


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
                     sigma=_constant(s), lambda_=lam,
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
        def b_of_t(t):
            """b(t), or for one time per row one matrix per row."""
            if np.ndim(t) == 0:
                return np.asarray(b(t), dtype=float).reshape(dim, dim)
            return np.stack([b_of_t(s) for s in np.ravel(t).tolist()]) \
                .reshape(np.shape(t)[:-1] + (dim, dim))
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
        x, bt = np.asarray(x, dtype=float), b_of_t(t)
        return x @ bt.T if bt.ndim == 2 else (bt @ x[..., None])[..., 0]

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
