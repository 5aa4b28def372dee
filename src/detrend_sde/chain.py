"""Euler broken lines, their inversion, and the detrended Markov chain.

The chain X(t_{k+1}) = X(t_k) + h_k {F + m}(t_k, X(t_k))
+ sqrt(h_k) sigma(t_k, X(t_k)) eps_{k+1} lives on a partition whose
step ratios stay bounded.  The drift-only recursion defines the broken
line gh(t_k; 0, x) with layer maps x -> x + h_j F(t_j, x); its Jacobian
satisfies both the summed recursion

    J_{k+1} = I + sum_{j<=k} h_j F_x(t_j, v_j) J_j

and the ordered product  J_m = A_{m-1} ... A_0,  A_j = I + h_j F_x(t_j, v_j),
which the tests hold against each other to machine accuracy.  The
detrended chain is Xt(t_k) = gh^{-1}(0; t_k, X(t_k)); its one-step
increment is exactly

    Xt(t_{k+1}) - Xt(t_k)
        = (int_0^1 Dgh^{-1}(0; t_{k+1}, Psi_u) du) (h_k m + sqrt(h_k) sigma eps)

with Psi_u on the segment from the drift-only prediction to X(t_{k+1}),
so the transformed update is again an Euler step whose coefficients
depend on the realized innovation.  The u-integral is Gauss-Legendre;
the integrand at each node is the inverse Jacobian evaluated via the
product form at the inverted base point.  For linear fields the
integrand is constant in u and the identity is exact for any node count.
The node count is chosen per path and step: a first pass at half the
rule, and the full rule only where the Legendre tail of the first
pass's node values says it is needed.

The broken line is inverted one way only, by a backward sweep over the
layers, batched over rows but converging row by row: each row has
its own tolerance, damping and stopping test, and a converged row is
frozen while the others iterate.  A row's result therefore does not
depend on which rows share its batch, so transform_chain inverts
fixed blocks of paths one after another: the block size bounds the
working set and peak memory but does not change the output bits.  For
the same reason rows of two adjacent levels can share a sweep, the
lower ones joining at their own top layer.  invert_broken_line runs
the same sweep on one point and checks the composite residual relative
to |y|, as the layers check theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ConvergenceTable
from .errors import InversionError
from .flow import DEFAULT_TOL, flow_jet
from .models import DriftSpec, ModelSpec
from .transform import _simulate_paths

DEFAULT_INVERSION_TOL = 1e-12
DEFAULT_QUAD_NODES = 16
_NEWTON_CAP = 100
# Paths per layer-inversion batch in transform_chain.  Each path brings
# its first-pass node rows and its state row, plus quad_nodes rows if its
# previous step was refined.  The block size bounds the working set:
# with 10^4 paths one batch of all of them ran 2.8x slower than 256-path
# blocks (64 to 1024 tried, sine d=2, 16 nodes in one pass).
_PATHS_PER_SOLVE = 256


@dataclass
class Partition:
    """Grid 0 = t_0 < ... < t_n = T with steps h_k = t_{k+1} - t_k and
    recorded max/min step ratio."""

    times: np.ndarray
    steps: np.ndarray
    ratio_c: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.steps = np.asarray(self.steps, dtype=float)
        if self.times[0] != 0.0 or not np.all(self.steps > 0):
            raise ValueError("partition must start at 0 with positive steps")
        if abs(self.steps.sum() - self.horizon) > 1e-12 * max(1.0, self.horizon):
            raise ValueError("steps do not sum to the horizon")

    @property
    def n(self) -> int:
        return self.steps.size

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def make_partition(n: int, kind: str = "uniform", T: float = 1.0,
                   c: float = 1.0) -> Partition:
    """Uniform or geometric partition of [0, T].

    The geometric family uses per-step ratio r = 1 + c/n, so the
    realized max/min step ratio r^(n-1) stays below e^c for every n;
    a fixed r independent of n would let the ratio grow without bound
    and is not offered.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not T > 0:
        raise ValueError("T must be positive")
    if kind == "uniform":
        times = np.linspace(0.0, T, n + 1)
        times[-1] = T
        return Partition(times=times, steps=np.diff(times), ratio_c=1.0)
    if kind == "geometric":
        r = 1.0 + c / n
        if r <= 0.0:
            raise ValueError(f"geometric ratio parameter c={c} gives nonpositive steps")
        w = r ** np.arange(n)
        steps = T * w / w.sum()
        times = np.concatenate(([0.0], np.cumsum(steps)))
        times[-1] = T
        steps = np.diff(times)
        return Partition(times=times, steps=steps,
                         ratio_c=float(steps.max() / steps.min()))
    raise ValueError(f"unknown partition kind {kind!r}")


@dataclass
class BrokenLine:
    """Drift-only Euler polygon from values[0] with its Jacobians and
    the layer matrices A_j = I + h_j F_x(t_j, v_j), shape (n, d, d)."""

    values: np.ndarray
    jacobians: np.ndarray
    partition: Partition
    drift: DriftSpec
    layers: np.ndarray


def broken_line(drift: DriftSpec, partition: Partition, x: np.ndarray) -> BrokenLine:
    """Values gh(t_k; 0, x) and Jacobians by the summed recursion."""
    x = np.asarray(x, dtype=float).reshape(drift.dim)
    d = drift.dim
    n = partition.n
    values = np.empty((n + 1, d))
    jacs = np.empty((n + 1, d, d))
    layers = np.empty((n, d, d))
    values[0] = x
    jacs[0] = np.eye(d)
    acc = np.zeros((d, d))
    for k in range(n):
        h = partition.steps[k]
        t = partition.times[k]
        v = values[k][None, :]
        fk = np.asarray(drift.f(t, v))[0]
        jk = np.asarray(drift.jac(t, v))[0]
        acc = acc + h * (jk @ jacs[k])
        values[k + 1] = values[k] + h * fk
        jacs[k + 1] = np.eye(d) + acc
        layers[k] = np.eye(d) + h * jk
    return BrokenLine(values=values, jacobians=jacs,
                      partition=partition, drift=drift, layers=layers)


def product_jacobian(bl: BrokenLine, k: int) -> np.ndarray:
    """Ordered product A_{k-1} ... A_0; equals jacobians[k] in exact
    arithmetic."""
    P = np.eye(bl.drift.dim)
    for A in bl.layers[:k]:
        P = A @ P
    return P


def inverse_jacobian_product(bl: BrokenLine, k: int) -> np.ndarray:
    """Ordered product A_0^{-1} ... A_{k-1}^{-1}, the inverse of
    jacobians[k] computed without ever forming it."""
    Q = np.eye(bl.drift.dim)
    for A in bl.layers[:k][::-1]:
        Q = solve_small(A, Q)
    return Q


def solve_small(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for a batch of small systems.

    A has shape (..., d, d); B is (..., d) or (..., d, m) with the same
    leading shape.  For d <= 2 the solve is in closed form (Cramer's
    rule, elementwise so the arithmetic runs along the batch, with one
    determinant per system shared by all right-hand columns); on a
    thousand 2x2 systems that is over 10x faster than LAPACK, which
    solves d > 2.  Each system's result depends on that system alone,
    and each column's bits equal those of its own vector solve.  A
    singular closed-form system yields inf or NaN instead of raising.
    """
    d = A.shape[-1]
    matrix = B.ndim == A.ndim
    if d > 2:
        return np.linalg.solve(A, B) if matrix \
            else np.linalg.solve(A, B[..., None])[..., 0]
    if d == 1:
        return B / A if matrix else B / A[..., 0]
    a, b, c, e = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    det = a * e - b * c
    X = np.empty(B.shape)
    # One column at a time: an operation across the columns would run
    # numpy's inner loop along the short column axis, not the batch.
    cols = [(X[..., i], B[..., i]) for i in range(B.shape[-1])] \
        if matrix else [(X, B)]
    for Xc, Bc in cols:
        B0, B1 = Bc[..., 0], Bc[..., 1]
        np.divide(e * B0 - b * B1, det, out=Xc[..., 0])
        np.divide(a * B1 - c * B0, det, out=Xc[..., 1])
    return X


def _row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row of a (b, d) array, taken column by
    column: for small d this is far cheaper than a.max(axis=1)."""
    out = a[:, 0]
    for i in range(1, a.shape[1]):
        out = np.maximum(out, a[:, i])
    return out


def _check_contraction(drift: DriftSpec, partition: Partition) -> None:
    hmax = float(partition.steps.max())
    if hmax * drift.m_f >= 0.5:
        raise InversionError(
            "inversion precondition violated: max step * m_f = "
            f"{hmax * drift.m_f:.3g} >= 0.5; refine the partition")


def _solve_layer(drift: DriftSpec, j: int, t: float, h: float,
                 z: np.ndarray, floor: float, eye: np.ndarray) -> np.ndarray:
    """w with w + h F(t, w) = z for each row of z, by Newton from the
    predictor w = z - h F(t, z).

    Every row stops on its own test |r|_inf <= max(1e-14 (1 + |z|_inf),
    floor) and is damped on its own residual history; converged rows
    are frozen while the rest iterate.  floor is the smallest row
    tolerance, so a batch below it is done without forming the rest.
    The result is the fixed-point step w - r from the last residual:
    for one subtraction it shrinks the error by h |F_x| < 1/2, so what
    a row leaves when it stops just under its tolerance does not pile
    up over hundreds of layers.
    """
    b = z.shape[0]
    w = z - h * np.asarray(drift.f(t, z))
    layer_tol = prev = None
    for it in range(_NEWTON_CAP):
        r = w + h * np.asarray(drift.f(t, w)) - z
        if b == 1:
            # A single point, the common query, runs the same test on
            # Python floats: a numpy reduction costs microseconds.
            vals = r[0].tolist()
            rn = rmax = max(map(abs, vals)) if math.isfinite(sum(vals)) else math.nan
        else:
            rn = _row_max(np.abs(r))
            rmax = float(rn.max(initial=0.0))
        if rmax <= floor:
            return w - r
        if not math.isfinite(rmax):
            raise InversionError(f"layer {j} Newton residual is not finite",
                                 residual=rmax)
        if layer_tol is None:
            layer_tol = max(1e-14 * (1.0 + max(map(abs, z[0].tolist()))), floor) \
                if b == 1 else np.maximum(1e-14 * (1.0 + _row_max(np.abs(z))), floor)
        live = rn > layer_tol
        n_live = live if b == 1 else np.count_nonzero(live)
        if not n_live:
            return w - r
        try:
            step = solve_small(eye + h * np.asarray(drift.jac(t, w)), r)
        except np.linalg.LinAlgError as exc:
            raise InversionError(f"layer {j} Newton system is singular",
                                 residual=rmax) from exc
        if it > 3:
            step = step * np.where(rn > prev, 0.5, 1.0)[..., None]
        w = w - step if n_live == b else np.where(live[:, None], w - step, w)
        prev = rn
    raise InversionError(
        f"layer {j} Newton stalled after {_NEWTON_CAP} iterations",
        residual=rmax)


def _invert_layers_batch(drift: DriftSpec, partition: Partition, levels,
                         ys: np.ndarray, tol: float,
                         want_jacobian: bool = False):
    """Solve gh(t_k; 0, x) = y for a batch of y, walking layers backward.

    levels is the level k of every row, or one level per row in
    non-increasing order: a row at a lower level k joins the sweep at
    its own top layer k - 1, so rows from several levels share one
    pass over their common layers.  Each layer is solved row by row
    (_solve_layer), contractive under the step-size precondition; a
    singular or diverging layer raises InversionError instead of
    passing as converged.  When requested, the Jacobian of the inverse
    map at y is accumulated alongside as the ordered product of layer
    inverses evaluated on the very layer values the sweep produces.
    Lower levels are at least 1.
    """
    d = drift.dim
    v = np.array(ys, dtype=float)
    eye = np.eye(d)
    joins = {}
    if np.ndim(levels):
        # Each lower level's rows [a, b) join at its top layer.
        cuts = [*(np.flatnonzero(np.diff(levels)) + 1).tolist(), len(levels)]
        joins = {int(levels[a]) - 1: b for a, b in zip(cuts, cuts[1:])}
        v_all, v = v, v[:cuts[0]]
        levels = int(levels[0])
    Q = np.broadcast_to(eye, v.shape + (d,)).copy() if want_jacobian else None
    floor = max(1e-14, 1e-3 * tol)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(levels - 1, -1, -1):
            if j in joins:
                new = v_all[v.shape[0]:joins[j]]
                v = np.concatenate([v, new])
                if want_jacobian:
                    Q = np.concatenate([Q, np.broadcast_to(eye, new.shape + (d,))])
            h = partition.steps[j]
            t = partition.times[j]
            v = _solve_layer(drift, j, t, h, v, floor, eye)
            if want_jacobian:
                Q = solve_small(eye + h * np.asarray(drift.jac(t, v)), Q)
    if want_jacobian and not np.isfinite(Q).all():
        raise InversionError("inverse Jacobian is not finite (singular layer)",
                             residual=float("nan"))
    return (v, Q) if want_jacobian else v


def _forward_values(drift: DriftSpec, partition: Partition, k: int,
                    xs: np.ndarray) -> np.ndarray:
    v = xs.astype(float).copy()
    for j in range(k):
        v = v + partition.steps[j] * np.asarray(drift.f(partition.times[j], v))
    return v


def invert_broken_line(drift: DriftSpec, partition: Partition, k: int,
                       y: np.ndarray,
                       tol: float = DEFAULT_INVERSION_TOL) -> np.ndarray:
    """x with gh(t_k; 0, x) = y, by the layered sweep of transform_chain
    on the single row y.

    Requires max_j h_j * m_f < 1/2 so each layer map is invertible by a
    contractive Newton iteration.  The result is accepted when the
    composite residual ||gh(t_k; 0, x) - y||_2 is at most
    tol (1 + ||y||_inf), relative to |y| like each layer's own test;
    otherwise InversionError carries the residual.
    """
    _check_contraction(drift, partition)
    if not 0 <= k <= partition.n:
        raise ValueError("level k outside the partition")
    y = np.asarray(y, dtype=float).reshape(1, drift.dim)
    x = _invert_layers_batch(drift, partition, k, y, tol)
    # Python floats: a numpy norm costs microseconds on one point.
    resid = math.hypot(*(_forward_values(drift, partition, k, x) - y)[0].tolist())
    if resid <= tol * (1.0 + max(map(abs, y[0].tolist()))):
        return x[0]
    raise InversionError("layered inversion missed the composite tolerance",
                         residual=resid)


@dataclass
class ChainRun:
    """Simulated chain with stored innovations; bitwise reproducible
    from (model, partition, seed)."""

    partition: Partition
    states: np.ndarray
    innovations: np.ndarray
    seed: int
    flagged: np.ndarray
    innovation_kind: str = "normal"


def simulate_chain(model: ModelSpec, partition: Partition, n_paths: int,
                   seed: int, innovation: str = "normal") -> ChainRun:
    """Euler chain on the given partition.  On a uniform partition with
    the same seed this reproduces simulate_original bitwise."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if innovation not in ("normal", "rademacher"):
        raise ValueError("innovation must be 'normal' or 'rademacher'")

    def coeff(t, y):
        return model.drift.f(t, y) + model.bounded_drift(t, y), model.sigma(t, y)

    paths, flagged, noises = _simulate_paths(
        partition.times, model.x0, n_paths, seed, coeff, model.dim,
        noise=innovation, store_noise=True)
    return ChainRun(partition=partition, states=paths, innovations=noises,
                    seed=seed, flagged=flagged, innovation_kind=innovation)


@dataclass
class TransformedChainRun:
    """Detrended chain states with per-step coefficients, the residuals
    of the exactness checks, and the path-steps whose first quadrature
    pass failed its error estimate (refined, shape (paths, n))."""

    partition: Partition
    states: np.ndarray
    m_coeffs: np.ndarray
    sigma_coeffs: np.ndarray
    identity_residuals: np.ndarray
    reconstruction_residuals: np.ndarray
    seed: int
    quad_nodes: int
    flagged: np.ndarray
    refined: np.ndarray


def _gauss_legendre_01(q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def _legendre_tail(q: int) -> np.ndarray:
    """Rows taking the values at q Gauss-Legendre nodes to the Legendre
    coefficients a_n = (2n+1)/2 sum_i w_i P_n(x_i) f(x_i) of degrees
    q - 2 and q - 1, the tail of the node interpolant (Trefethen,
    Approximation Theory and Approximation Practice, ch. 19)."""
    x, w = np.polynomial.legendre.leggauss(q)
    deg = np.array([q - 2, q - 1])
    vals = np.polynomial.legendre.legvander(x, q - 1)[:, deg].T
    return (deg + 0.5)[:, None] * w * vals


def transform_chain(model: ModelSpec, partition: Partition, run: ChainRun,
                    quad_nodes: int = DEFAULT_QUAD_NODES,
                    inversion_tol: float = DEFAULT_INVERSION_TOL) -> TransformedChainRun:
    """Detrend a simulated chain.

    For each step the inverse broken-line map at level k+1 is evaluated
    at the chain state (giving Xt) and at Gauss-Legendre nodes on the
    prediction segment (giving Qbar, the averaged inverse Jacobian that
    multiplies m and sigma).  quad_nodes is the rule a path-step gets
    when it needs it.  From 16 nodes up, every path-step first gets
    quad_nodes // 2 nodes, and is refined to quad_nodes when its error
    estimate fails: the largest of the two top Legendre coefficients
    over every entry of Q, squared, exceeds inversion_tol, or the
    one-step identity along the increment misses inversion_tol
    (1 + |X_{k+1}|_inf).  Step k's refinement rows join step k+1's
    sweep at their own level; the last step's get a sweep of their
    own.  Below 16 nodes every path-step gets one pass at quad_nodes.
    A path-step's node count and bits depend on that path alone, and
    the states come from the state rows of the first pass.  Stores
    per-step residuals of the one-step identity and of the forward
    reconstruction gh(t_k; 0, Xt_k) = X_k.
    """
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
    if run.partition.times.shape != partition.times.shape or \
            not np.array_equal(run.partition.times, partition.times):
        raise ValueError("run was simulated on a different partition")
    _check_contraction(model.drift, partition)

    drift = model.drift
    d = model.dim
    n = partition.n
    P = run.states.shape[0]
    q = quad_nodes
    q1 = q // 2 if q // 2 >= 8 else q
    u1, w1 = _gauss_legendre_01(q1)
    u, w = _gauss_legendre_01(q)
    tail_rows = _legendre_tail(q1)

    states = np.empty((P, n + 1, d))
    m_co = np.empty((P, n, d))
    s_co = np.empty((P, n, d, d))
    resid_id = np.zeros((P, n))
    resid_rec = np.zeros((P, n + 1))
    states[:, 0] = run.states[:, 0]
    x0 = run.states[:, 0]
    flagged = run.flagged.copy()
    refined = np.zeros((P, n), dtype=bool)

    X = run.states
    eps = run.innovations
    safe = lambda arr: np.where(flagged[:, None], x0, arr)

    def finish(k, Qbar):
        t_k = partition.times[k]
        h = partition.steps[k]
        xk = safe(X[:, k])
        mk = np.asarray(model.bounded_drift(t_k, xk))
        sk = np.asarray(model.sigma(t_k, xk))
        m_co[:, k] = np.einsum("pij,pj->pi", Qbar, mk)
        s_co[:, k] = Qbar @ sk
        r = safe(states[:, k + 1]) - safe(states[:, k]) - h * m_co[:, k] \
            - np.sqrt(h) * np.einsum("pij,pj->pi", s_co[:, k], eps[:, k])
        resid_id[:, k] = np.where(flagged, np.nan, np.linalg.norm(r, axis=1))

    # Paths of the previous step to refine, and their full-rule nodes.
    fine_idx = np.zeros(0, dtype=int)
    fine_pts = np.zeros((q, 0, d))
    for k in range(n + 1):
        if k < n:
            t_k = partition.times[k]
            h = partition.steps[k]
            xk = safe(X[:, k])
            xk1 = safe(X[:, k + 1])
            base = xk + h * np.asarray(drift.f(t_k, xk))
            delta = xk1 - base
            pts = base[None, :, :] + u1[:, None, None] * delta[None, :, :]
            Qbar = np.empty((P, d, d))
            xt_next = np.empty((P, d))
            tail = np.empty(P)
        for lo in range(0, P, _PATHS_PER_SOLVE):
            sl = slice(lo, min(lo + _PATHS_PER_SOLVE, P))
            p = sl.stop - lo if k < n else 0
            a, b = np.searchsorted(fine_idx, [sl.start, sl.stop])
            if not p and a == b:
                continue
            rows = [pts[:, sl].reshape(q1 * p, d), xk1[sl]] if p else []
            rows.append(fine_pts[:, a:b].reshape(q * (b - a), d))
            levels = np.repeat([k + 1, k], [(q1 + 1) * p, q * (b - a)])
            inv, Q = _invert_layers_batch(drift, partition, levels,
                                          np.concatenate(rows), inversion_tol,
                                          want_jacobian=True)
            if p:
                Qn = Q[:q1 * p].reshape(q1, p, d, d)
                Qbar[sl] = np.einsum("u,upij->pij", w1, Qn)
                if q1 < q:
                    tail[sl] = np.abs(np.einsum("nu,upij->npij", tail_rows, Qn)
                                      ).max(axis=(0, 2, 3))
                xt_next[sl] = inv[q1 * p:(q1 + 1) * p]
            if b > a:
                Qbar_prev[fine_idx[a:b]] = np.einsum(
                    "u,upij->pij", w, Q[(q1 + 1) * p:].reshape(q, b - a, d, d))
        if k:
            finish(k - 1, Qbar_prev)
        if k == n:
            break
        states[:, k + 1] = np.where(flagged[:, None], np.nan, xt_next)
        rec = _forward_values(drift, partition, k + 1, xt_next) - xk1
        resid_rec[:, k + 1] = np.where(flagged, np.nan,
                                       np.linalg.norm(rec, axis=1))
        if q1 < q:
            gap = xt_next - safe(states[:, k]) \
                - np.einsum("pij,pj->pi", Qbar, delta)
            refined[:, k] = ~flagged & (
                (tail * tail > inversion_tol)
                | (_row_max(np.abs(gap))
                   > inversion_tol * (1.0 + _row_max(np.abs(xk1)))))
            fine_idx = np.flatnonzero(refined[:, k])
            fine_pts = base[fine_idx][None] \
                + u[:, None, None] * delta[fine_idx][None]
        Qbar_prev = Qbar

    return TransformedChainRun(partition=partition, states=states,
                               m_coeffs=m_co, sigma_coeffs=s_co,
                               identity_residuals=resid_id,
                               reconstruction_residuals=resid_rec,
                               seed=run.seed, quad_nodes=quad_nodes,
                               flagged=flagged, refined=refined)


def jacobian_limit_check(drift: DriftSpec, x: np.ndarray, t: float,
                         n_list, flow_tol: float = DEFAULT_TOL) -> ConvergenceTable:
    """Distance of the broken-line Jacobian at t from the flow Jacobian
    g_star(t; 0, x), tabulated over uniform partitions of [0, t] with n
    steps for n in n_list; first-order in the step."""
    x = np.asarray(x, dtype=float).reshape(drift.dim)
    ref = flow_jet(drift, 0.0, t, x, tol=flow_tol).g_star
    rows = []
    for n in n_list:
        part = make_partition(int(n), "uniform", T=t)
        bl = broken_line(drift, part, x)
        err = float(np.linalg.norm(bl.jacobians[-1] - ref, 2))
        rows.append((t / int(n), err))
    return ConvergenceTable.from_pairs(rows)
