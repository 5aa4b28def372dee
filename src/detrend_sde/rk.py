"""Adaptive DOP853 integration on batched states.

One explicit scheme serves every flow computation in the package: the
8th-order Dormand-Prince pair of Hairer, with its combined 5th/3rd-order
error estimate and an I step controller (Hairer, Norsett and Wanner,
Solving ODEs I, II.5 and II.10).  The rows of the state (its first
axis) step together from t0 to t1 on one adaptive grid, error-controlled
over all rows; the last stage of an accepted step is the first of the
next (FSAL).  Rows with their own end times t1_i share that grid in a
rescaled time: with tau_i = t1_i - t0, row i solves dy/ds = tau_i
rhs(t0 + tau_i s, y) for s from 0 to 1, so the grid has no breakpoints,
the right-hand side sees one time per row, and a row with tau_i = 0
comes back unchanged.

As in Hairer's dop853.f, the step size is an in/out argument: a caller
solving a sequence of similar problems hands each solve's next step to
the following one as its first trial step, which skips the starting-step
estimate (ibid., II.4) and its extra right-hand-side call.
"""

from __future__ import annotations

import numpy as np

from .errors import FlowIntegrationError

# DOP853 tableau, with the doubles of Hairer's dop853.f.  _C[i] is the
# node of stage i; _A[i - 1] holds the nonzero (j, a_ij) of stage i for
# i = 1..11, and _B the nonzero (j, b_j), which also form the FSAL stage.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386),
     (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998),
     (4, 0.10726203044637328), (5, -0.015319437748624402),
     (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))
# The 8th-order solution minus its 5th- and 3rd-order companions.
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044),
       (6, -0.4957589496572502), (7, 1.6643771824549864),
       (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_E3 = ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
       (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
       (10, 0.20136540080403034), (11, 0.02265179219836082))

_EXPONENT = 1 / 8  # 1 / (q + 1) for the order q = 7 of the error estimate
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 1_000_000


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _weighted(row, ks) -> np.ndarray:
    """sum_j a_j k_j over the (j, a_j) of row, elementwise and in order."""
    (j, a), *rest = row
    s = a * ks[j]
    for j, a in rest:
        s += a * ks[j]
    return s


def _stages(rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """One step from (t, y): the new state and the two error estimates."""
    ks = [k1]
    for c, row in zip(_C[1:], _A):
        ks.append(rhs(t + c * h, y + h * _weighted(row, ks)))
    return y + h * _weighted(_B, ks), _weighted(_E5, ks), _weighted(_E3, ks)


def _factor(err_norm: float) -> float:
    """Step-size ratio of the I controller."""
    return min(_MAX_FACTOR,
               max(_MIN_FACTOR, _SAFETY * max(err_norm, 1e-10) ** -_EXPONENT))


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
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, span)


def _failure(what: str, t) -> FlowIntegrationError:
    """The error for a solve stopped at t, a numpy or Python scalar."""
    t = float(t)
    return FlowIntegrationError(f"{what} at t={t!r}", t_reached=t)


def _solve(rhs, t0: float, t1: float, y: np.ndarray, rtol: float,
           atol: float, h: float | None, clock=float):
    """integrate's loop; clock(t) is the time a failure at t reports."""
    direction = 1.0 if t1 > t0 else -1.0
    tiny = 16 * np.finfo(float).eps
    if abs(t1 - t0) < tiny * max(1.0, abs(t0)):
        return y.copy(), h
    t, k1 = t0, None
    for _ in range(_MAX_STEPS):
        if k1 is None:
            k1 = rhs(t, y)
        if h is None:
            h = _initial_step(rhs, t0, y, k1, direction, abs(t1 - t0), rtol, atol)
        h_step = min(h, abs(t1 - t))
        if h_step < tiny * max(1.0, abs(t)):
            raise _failure("step size underflow", clock(t))
        y_new, e5, e3 = _stages(rhs, t, y, direction * h_step, k1)
        if not np.all(np.isfinite(y_new)):
            raise _failure("non-finite state", clock(t))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        s5 = float(np.sum(np.square(e5 / scale)))
        s3 = float(np.sum(np.square(e3 / scale)))
        err_norm = 0.0 if s5 == 0.0 else \
            h_step * s5 / np.sqrt(y.size * (s5 + 0.01 * s3))
        if err_norm <= 1.0:
            last = abs(t + direction * h_step - t1) < tiny * max(1.0, abs(t1))
            t = t1 if last else t + direction * h_step
            y, k1 = y_new, None
            grown = h_step * _factor(err_norm)
            # A last step cut short at t1 does not shrink the next one.
            h = max(h, grown) if h_step < h else grown
            if last:
                return y, h
        else:
            h = h_step * _factor(err_norm)
    raise _failure("step budget exhausted", clock(t))


def integrate(rhs, t0: float, t1, y0: np.ndarray, rtol: float = 1e-10,
              atol: float = 1e-12, h0: float | None = None):
    """Integrate dy/dt = rhs(t, y) from t0 to t1 (either direction).

    t1 is a scalar or one end time per row of y0, all on one side of t0.
    Distinct end times rescale time (module docstring); rhs then gets t
    of shape (rows, 1), and h0 and h below are steps in s.  h0 is the
    first trial step size; None estimates one (_initial_step).
    Returns (y, h): each row at its own end time, with the shape of y0,
    and the step size the controller would try next, h0 if no step was
    taken.  Raises ValueError for end times that are not finite or lie
    on both sides of t0, and FlowIntegrationError on a non-finite state,
    step-size underflow or more than _MAX_STEPS steps, carrying the last
    time reached (when rescaled, along the row ending farthest from t0).
    """
    y0 = np.asarray(y0, dtype=float)
    if np.ndim(t1) == 0 and np.isfinite(t1 - t0):
        return _solve(rhs, t0, t1, y0, rtol, atol, h0)
    ends = np.asarray(t1, dtype=float)
    lo, hi = ends.min() - t0, ends.max() - t0
    if not np.isfinite(lo + hi) or lo < 0 < hi:
        raise ValueError("times must be finite, the end times on one side of t0")
    if lo == hi:
        return _solve(rhs, t0, float(ends[0]), y0, rtol, atol, h0)
    tau, far = (ends - t0)[:, None], hi if lo >= 0 else lo
    return _solve(lambda s, y: tau * rhs(t0 + tau * s, y), 0.0, 1.0, y0,
                  rtol, atol, h0, clock=lambda s: t0 + far * s)
