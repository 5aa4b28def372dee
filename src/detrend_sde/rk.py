"""Adaptive Dormand-Prince 5(4) integration on batched states.

One explicit scheme serves every flow computation in the package.  The
state may carry arbitrary leading batch axes; the error norm is a scaled
RMS over all entries, so a batch is advanced on a common adaptive grid.
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
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span if span > 0 else 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span) if span > 0 else h0
    y1 = y0 + direction * h0 * f0
    f1 = rhs(t0 + direction * h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100 * h0, h1, span if span > 0 else h1)


def integrate(rhs, t0: float, t1: float, y0: np.ndarray, rtol: float = 1e-10,
              atol: float = 1e-12, max_steps: int = 1_000_000) -> np.ndarray:
    """Integrate dy/dt = rhs(t, y) from t0 to t1 (either direction).

    Returns y(t1) with the same shape as y0.  Raises
    FlowIntegrationError on step-size underflow or step-count overflow,
    carrying the last time reached.
    """
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0:
        return y0.copy()
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    t = t0
    y = y0.copy()
    k1 = rhs(t, y)
    h = _initial_step(rhs, t0, y, k1, direction, span, rtol, atol)
    err_prev = 1e-4
    tiny = 16 * np.finfo(float).eps

    for _ in range(max_steps):
        if (t - t1) * direction >= 0:
            return y
        h = min(h, abs(t1 - t))
        if h < tiny * max(1.0, abs(t)):
            raise FlowIntegrationError(
                f"step size underflow at t={t!r}", t_reached=t)
        y_new, k7, err = _stages(rhs, t, y, direction * h, k1)
        if not np.all(np.isfinite(y_new)):
            raise FlowIntegrationError(
                f"non-finite state at t={t!r}", t_reached=t)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if err_norm <= 1.0:
            t = t1 if abs(t + direction * h - t1) < tiny * max(1.0, abs(t1)) \
                else t + direction * h
            y = y_new
            k1 = k7
            base = max(err_norm, 1e-10)
            factor = _SAFETY * base ** (-0.7 / _ORDER) * err_prev ** (0.4 / _ORDER)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = base
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** (-1.0 / _ORDER))
    raise FlowIntegrationError(f"step budget exhausted at t={t!r}", t_reached=t)
