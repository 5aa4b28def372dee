"""Adaptive Dormand-Prince 5(4) integration on batched states.

One explicit scheme serves every flow computation in the package.  Each
row of the state (its first axis) has its own end time; the batch steps
on one adaptive grid, error-controlled by a scaled RMS over the rows
still live, and rows retire at their end times as breakpoints of that
grid (Hairer, Norsett and Wanner, Solving ODEs I, II.6).
"""

from __future__ import annotations

import numpy as np

from .errors import FlowIntegrationError

# Dormand-Prince 5(4) tableau, FSAL.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# y5 - y4 expansion coefficients over the seven stages.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_ORDER = 5
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _stages(rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    k2 = rhs(t + _C2 * h, y + h * (_A[0][0] * k1))
    k3 = rhs(t + _C3 * h, y + h * (_A[1][0] * k1 + _A[1][1] * k2))
    k4 = rhs(t + _C4 * h, y + h * (_A[2][0] * k1 + _A[2][1] * k2 + _A[2][2] * k3))
    k5 = rhs(t + _C5 * h, y + h * (_A[3][0] * k1 + _A[3][1] * k2 + _A[3][2] * k3
                                   + _A[3][3] * k4))
    k6 = rhs(t + h, y + h * (_A[4][0] * k1 + _A[4][1] * k2 + _A[4][2] * k3
                             + _A[4][3] * k4 + _A[4][4] * k5))
    y_new = y + h * (_A[5][0] * k1 + _A[5][2] * k3 + _A[5][3] * k4
                     + _A[5][4] * k5 + _A[5][5] * k6)
    k7 = rhs(t + h, y_new)
    err = h * (_E[0] * k1 + _E[2] * k3 + _E[3] * k4 + _E[4] * k5
               + _E[5] * k6 + _E[6] * k7)
    return y_new, k7, err


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray,
                  direction: float, span: float, rtol: float, atol: float) -> float:
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + direction * h0 * f0
    f1 = rhs(t0 + direction * h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100 * h0, h1, span)


def integrate(rhs, t0: float, t1, y0: np.ndarray, rtol: float = 1e-10,
              atol: float = 1e-12, max_steps: int = 1_000_000) -> np.ndarray:
    """Integrate dy/dt = rhs(t, y) from t0 to t1 (either direction).

    t1 is a scalar or one end time per row of y0, all on one side of t0.
    Returns each row at its own end time, with the shape of y0.  Raises
    ValueError for end times that are not finite or lie on both sides
    of t0, and FlowIntegrationError on step-size underflow or
    step-count overflow, carrying the last time reached.
    """
    y0 = np.asarray(y0, dtype=float)
    ends = np.full(y0.shape[:1], t1, dtype=float)
    lo, hi = ends.min() - t0, ends.max() - t0
    if not np.isfinite(lo + hi) or lo < 0 < hi:
        raise ValueError("times must be finite, the end times on one side of t0")
    direction = 1.0 if hi > 0 else -1.0
    order = np.argsort(direction * ends, kind="stable")
    keys = direction * ends[order]
    out = np.empty_like(y0)
    y, t, t_next, done, k1 = y0[order], t0, t0, 0, None
    err_prev = 1e-4
    tiny = 16 * np.finfo(float).eps

    for _ in range(max_steps):
        if t == t_next:  # a breakpoint: the rows ending here retire
            n = int(np.searchsorted(keys, direction * t + tiny * max(1.0, abs(t))))
            out[order[done:n]], y = y[:n - done], y[n - done:]
            k1 = None if k1 is None else k1[n - done:]
            done = n
            if done == keys.size:
                return out
            t_next = direction * float(keys[done])
        if k1 is None:
            k1 = rhs(t, y)
            h = _initial_step(rhs, t0, y, k1, direction,
                              abs(direction * float(keys[-1]) - t0), rtol, atol)
        h_step = min(h, abs(t_next - t))
        if h_step < tiny * max(1.0, abs(t)):
            raise FlowIntegrationError(
                f"step size underflow at t={t!r}", t_reached=t)
        y_new, k7, err = _stages(rhs, t, y, direction * h_step, k1)
        if not np.all(np.isfinite(y_new)):
            raise FlowIntegrationError(
                f"non-finite state at t={t!r}", t_reached=t)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if err_norm <= 1.0:
            t = t_next if abs(t + direction * h_step - t_next) \
                < tiny * max(1.0, abs(t_next)) else t + direction * h_step
            y, k1 = y_new, k7
            base = max(err_norm, 1e-10)
            factor = _SAFETY * base ** (-0.7 / _ORDER) * err_prev ** (0.4 / _ORDER)
            grown = h_step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # A step cut short at a breakpoint does not shrink the next one.
            h = max(h, grown) if h_step < h else grown
            err_prev = base
        else:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / _ORDER))
    raise FlowIntegrationError(f"step budget exhausted at t={t!r}", t_reached=t)
