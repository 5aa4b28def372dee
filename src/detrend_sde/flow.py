"""Phase flow of the drift ODE and its variational jets.

For dx/dt = F(t, x) with flow g(t; t0, x), the module integrates, in one
augmented system,

    y  = g(t; t0, x)
    Z  = dg/dx                  dZ/dt = F_x(t, y) Z,        Z(t0) = I
    M  = Z^{-1}                 dM/dt = -M F_x(t, y),       M(t0) = I
    W  = d2g/dx2                dW/dt = F_x W + F_xx(Z, Z), W(t0) = 0
    s  = int trace F_x(u, y(u)) du

M is co-integrated (adjoint route) rather than obtained by inverting Z
at the endpoint, which keeps Z M = I to integration accuracy.  The
curvature tensor of the inverse map,

    c[i, j, k] = sum_{l,p} W[i, l, p] M[p, j] M[l, k],

is symmetric in (j, k) and vanishes identically for linear fields; the
second derivative of the inverse map is -M c.  exp(s) reproduces det Z
(Liouville), giving an independent route to the determinant.

For d >= 2 the tensor terms J W, F_xx(Z, Z) and c are batched matmuls
that keep einsum's product order (F_xx Z first, then Z; W M first, then
M), so diagonal and linear fields give the einsum bits; for d = 1 every
product is elementwise.

All entry points accept a single point or a batch.  The *_many entry
points also take one end time per row: rk.integrate rescales each row's
time to s in [0, 1], t = t0 + (t1_i - t0) s, so the batch is one solve
on one grid, error-controlled across all rows, and the drift callables
see one time per row; a row ending at its start time gets exact
identity jets.
"""

from __future__ import annotations

import numpy as np

from . import rk
from .errors import SingularJacobianError
from .models import DriftSpec

DEFAULT_TOL = 1e-10
_DET_FLOOR = 1e-12


def _rhs_jet(drift: DriftSpec, d: int, order: int):
    """Right-hand side of the augmented state [y, Z, M, (W,) s]."""
    dd, ddd = d * d, d * d * d
    w = slice(d + 2 * dd, d + 2 * dd + ddd)

    def rhs(t, u):
        y = u[:, :d]
        out = np.empty_like(u)
        out[:, :d] = drift.f(t, y)
        J = drift.jac(t, y)
        H = drift.hess(t, y) if order == 2 else None
        if d == 1:
            # Every product is a scalar one, and elementwise products
            # cost less than batched matmuls over 1x1 blocks.
            j = J.reshape(-1)
            out[:, 1] = j * u[:, 1]
            out[:, 2] = -(u[:, 2] * j)
            if order == 2:
                out[:, 3] = j * u[:, 3] + H.reshape(-1) * u[:, 1] * u[:, 1]
            out[:, -1] = j
            return out
        Z = u[:, d:d + dd].reshape(-1, d, d)
        M = u[:, d + dd:d + 2 * dd].reshape(-1, d, d)
        out[:, d:d + dd] = (J @ Z).reshape(-1, dd)
        out[:, d + dd:d + 2 * dd] = (-(M @ J)).reshape(-1, dd)
        if order == 2:
            JW = J @ u[:, w].reshape(-1, d, dd)
            HZZ = (Z.swapaxes(1, 2)[:, None] @ H) @ Z[:, None]
            out[:, w] = JW.reshape(-1, ddd) + HZZ.reshape(-1, ddd)
        out[:, -1] = J.trace(axis1=1, axis2=2)
        return out
    return rhs


def _as_batch(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x = x[None, :] if x.ndim == 1 else x
    if x.ndim == 2 and x.shape[1] == d:
        return x
    raise ValueError(f"state must have shape ({d},) or (batch, {d})")


def advance_flow_many(drift: DriftSpec, t0: float, t1, xs: np.ndarray,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """g(t1; t0, x) per row; t1 is a scalar or one end time per row."""
    return rk.integrate(drift.f, t0, t1, _as_batch(xs, drift.dim), rtol=tol)[0]


def advance_flow(drift: DriftSpec, t0: float, t1: float, x: np.ndarray,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """g(t1; t0, x).  t1 < t0 integrates backward along the same field."""
    return advance_flow_many(drift, t0, t1, np.asarray(x, dtype=float)[None, :],
                             tol)[0]


def flow_jet_many(drift: DriftSpec, t0: float, t1, xs: np.ndarray,
                  tol: float = DEFAULT_TOL, order: int = 2,
                  h0: float | None = None) -> dict:
    """Jets for a batch of base points; order 1 omits W and c.  t1 is a
    scalar or one end time per row; h0 is rk.integrate's first trial
    step (None: its own estimate).

    Returns arrays keyed g, g_star, g_star_inv, det_g_star,
    trace_integral and (order 2) c, and under step the step size the
    solve would try next (h0 if it took none), for the next solve's h0.
    With end times that differ by row, h0 and step are steps in the
    rescaled time s of rk.integrate, which no caller hands on.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    xs = _as_batch(xs, drift.dim)
    b, d = xs.shape
    dd, ddd = d * d, d * d * d
    nvar = d + 2 * dd + 1 + (ddd if order == 2 else 0)
    u0 = np.zeros((b, nvar))
    u0[:, :d] = xs
    u0[:, d:d + 2 * dd] = np.tile(np.eye(d).ravel(), 2)
    u, step = rk.integrate(_rhs_jet(drift, d, order), t0, t1, u0, rtol=tol,
                           h0=h0)
    out = {
        "g": u[:, :d].copy(),
        "g_star": u[:, d:d + dd].reshape(b, d, d).copy(),
        "g_star_inv": u[:, d + dd:d + 2 * dd].reshape(b, d, d).copy(),
        "trace_integral": u[:, -1].copy(),
        "step": step,
    }
    out["det_g_star"] = np.linalg.det(out["g_star"])
    singular = np.abs(out["det_g_star"]) < _DET_FLOOR
    if np.any(singular):
        t_bad = float(np.broadcast_to(t1, (b,))[singular][0])
        raise SingularJacobianError(
            f"flow Jacobian numerically singular on [{t0}, {t_bad}]")
    if order == 2:
        W = u[:, d + 2 * dd:d + 2 * dd + ddd].reshape(b, d, d, d)
        M = out["g_star_inv"]
        out["c"] = (W @ M[:, None]).swapaxes(2, 3) @ M[:, None]
    return out


def inverse_flow_many(drift: DriftSpec, t: float, ys: np.ndarray,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    return advance_flow_many(drift, t, 0.0, ys, tol)


def inverse_flow(drift: DriftSpec, t: float, y: np.ndarray,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """g^{-1}(0; t, y): the point whose forward flow reaches y at time t.

    Round trip through advance_flow returns y within about
    10 * tol * (1 + |y|).
    """
    return inverse_flow_many(drift, t, np.asarray(y, dtype=float)[None, :], tol)[0]


def flow_time_derivatives(drift: DriftSpec, t0: float, t: float, x: np.ndarray,
                          tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Analytic time derivatives of the flow pair at (t; t0, x).

    Returns (d_t0_g, d_t_ginv):
      d_t0_g   = -g_star(t; t0, x) F(t0, x), the sensitivity of the
                 forward flow to its start time;
      d_t_ginv = -g_star_inv(t; 0, xh) F(t, y), the time derivative of
                 y -> g^{-1}(0; t, y) at fixed y = g(t; t0, x), where
                 xh = g^{-1}(0; t, y).
    """
    x = np.asarray(x, dtype=float)
    jets = flow_jet_many(drift, t0, t, x[None, :], tol, order=1)
    y = jets["g"][0]
    f0 = np.asarray(drift.f(t0, x[None, :]))[0]
    d_t0_g = -jets["g_star"][0] @ f0
    if t0 == 0.0:
        xh = x
        m = jets["g_star_inv"][0]
    else:
        xh = inverse_flow(drift, t, y, tol)
        m = flow_jet_many(drift, 0.0, t, xh[None, :], tol, order=1)["g_star_inv"][0]
    ft = np.asarray(drift.f(t, y[None, :]))[0]
    d_t_ginv = -m @ ft
    return d_t0_g, d_t_ginv

