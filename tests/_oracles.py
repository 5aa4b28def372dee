"""Independent reference implementations used to freeze expected values.

Everything here is deliberately decoupled from the package under test:
plain fixed-step RK4, jet equations assembled by hand from callables,
and finite differences with Richardson extrapolation.  Run as a script
to print the reference values that the unit tests freeze.

    python3 -m tests._oracles
"""

import numpy as np


def rk4(rhs, t0, t1, y0, n):
    """Classic fixed-step Runge-Kutta 4 from t0 to t1 in n steps."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / n
    t = t0
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def jet_rhs(f, jac, hess, d):
    """Right-hand side for the flow jet as one flat vector.

    Layout: y (d), Z (d*d) forward Jacobian, M (d*d) inverse Jacobian,
    W (d*d*d) second derivative of the flow, s (1) trace integral.
    """
    def rhs(t, u):
        y = u[:d]
        Z = u[d:d + d * d].reshape(d, d)
        M = u[d + d * d:d + 2 * d * d].reshape(d, d)
        W = u[d + 2 * d * d:d + 2 * d * d + d ** 3].reshape(d, d, d)
        J = jac(t, y)
        H = hess(t, y)
        dy = f(t, y)
        dZ = J @ Z
        dM = -M @ J
        dW = np.einsum("il,ljk->ijk", J, W) + np.einsum("ilp,lj,pk->ijk", H, Z, Z)
        ds = np.trace(J)
        return np.concatenate([dy, dZ.ravel(), dM.ravel(), dW.ravel(), [ds]])
    return rhs


def jet_init(x, d):
    Z = np.eye(d)
    return np.concatenate([np.asarray(x, float), Z.ravel(), Z.ravel(),
                           np.zeros(d ** 3), [0.0]])


def unpack_jet(u, d):
    y = u[:d]
    Z = u[d:d + d * d].reshape(d, d)
    M = u[d + d * d:d + 2 * d * d].reshape(d, d)
    W = u[d + 2 * d * d:d + 2 * d * d + d ** 3].reshape(d, d, d)
    s = u[-1]
    return y, Z, M, W, s


def c_tensor(Z, M, W):
    """Curvature weights of the inverse map, c[i,j,k] = W[i,l,p] M[p,j] M[l,k]."""
    return np.einsum("ilp,pj,lk->ijk", W, M, M)


def transformed_coefficients(f, jac, hess, d, t, x, m_fn, sigma_fn, n=1 << 13):
    """Drift and diffusion of the detrended process at (t, x).

    Composes the jet with the model coefficients evaluated at the image
    point: m_tilde = M (m - 1/2 c : a), sigma_tilde = M sigma.
    """
    u = rk4(jet_rhs(f, jac, hess, d), 0.0, t, jet_init(x, d), n)
    y, Z, M, W, _ = unpack_jet(u, d)
    c = c_tensor(Z, M, W)
    mv = m_fn(t, y)
    sv = sigma_fn(t, y)
    a = sv @ sv.T
    corr = np.einsum("ljk,jk->l", c, a)
    return M @ (mv - 0.5 * corr), M @ sv


def swap_fields(alpha, beta):
    """Coupled, time-dependent drift: F(t,x) = (1+t/2) a sin(b x_swapped).

    Cross-coupling makes every jet block dense, and the explicit t
    dependence exercises the nonautonomous path of the integrators.
    """
    def scale(t):
        return 1.0 + 0.5 * t

    def f(t, x):
        return scale(t) * alpha * np.sin(beta * x[::-1])

    def jac(t, x):
        ab = scale(t) * alpha * beta
        return np.array([[0.0, ab * np.cos(beta * x[1])],
                         [ab * np.cos(beta * x[0]), 0.0]])

    def hess(t, x):
        ab2 = scale(t) * alpha * beta * beta
        H = np.zeros((2, 2, 2))
        H[0, 1, 1] = -ab2 * np.sin(beta * x[1])
        H[1, 0, 0] = -ab2 * np.sin(beta * x[0])
        return H
    return f, jac, hess


# Componentwise sine drift used for the frozen values below.
def sine_fields(alpha, beta):
    def f(t, x):
        return alpha * np.sin(beta * x)

    def jac(t, x):
        return np.diag(alpha * beta * np.cos(beta * x))

    def hess(t, x):
        d = x.size
        H = np.zeros((d, d, d))
        idx = np.arange(d)
        H[idx, idx, idx] = -alpha * beta * beta * np.sin(beta * x)
        return H
    return f, jac, hess


def fixed_rule_chain(model, partition, run, invert, q=16, tol=1e-12,
                     paths_per_solve=256):
    """Detrended states and coefficients with every path-step on one
    q-node Gauss-Legendre rule: the per-step loop the adaptive
    transform_chain replaced, kept as its reference.  invert(levels,
    ys, tol) is the library's layered sweep returning (x, Q), passed in
    so that the states can be compared bit for bit.

    Returns (states, m_coeffs, sigma_coeffs), NaN states on flagged paths.
    """
    d = model.dim
    n = partition.n
    P = run.states.shape[0]
    x, wx = np.polynomial.legendre.leggauss(q)
    u, w = 0.5 * (x + 1.0), 0.5 * wx
    states = np.empty((P, n + 1, d))
    m_co = np.empty((P, n, d))
    s_co = np.empty((P, n, d, d))
    states[:, 0] = run.states[:, 0]
    x0 = run.states[:, 0]
    safe = lambda arr: np.where(run.flagged[:, None], x0, arr)
    for k in range(n):
        t_k, h = partition.times[k], partition.steps[k]
        xk, xk1 = safe(run.states[:, k]), safe(run.states[:, k + 1])
        base = xk + h * np.asarray(model.drift.f(t_k, xk))
        pts = base[None] + u[:, None, None] * (xk1 - base)[None]
        Qbar = np.empty((P, d, d))
        xt_next = np.empty((P, d))
        for lo in range(0, P, paths_per_solve):
            sl = slice(lo, min(lo + paths_per_solve, P))
            p = sl.stop - lo
            inv, Q = invert(k + 1, np.concatenate([pts[:, sl].reshape(q * p, d),
                                                   xk1[sl]]), tol)
            Qbar[sl] = np.einsum("u,upij->pij", w, Q[:q * p].reshape(q, p, d, d))
            xt_next[sl] = inv[q * p:]
        m_co[:, k] = np.einsum("pij,pj->pi", Qbar,
                               np.asarray(model.bounded_drift(t_k, xk)))
        s_co[:, k] = Qbar @ np.asarray(model.sigma(t_k, xk))
        states[:, k + 1] = np.where(run.flagged[:, None], np.nan, xt_next)
    return states, m_co, s_co


def frozen_values():
    out = {}

    f, jac, hess = sine_fields(0.8, 1.3)
    d, t1, x = 2, 0.7, np.array([0.4, -0.3])
    lo = rk4(jet_rhs(f, jac, hess, d), 0.0, t1, jet_init(x, d), 1 << 13)
    hi = rk4(jet_rhs(f, jac, hess, d), 0.0, t1, jet_init(x, d), 1 << 14)
    out["sine2_jet_check"] = float(np.abs(hi - lo).max())
    y, Z, M, W, s = unpack_jet(hi, d)
    out["sine2_y"] = y
    out["sine2_g_star"] = Z
    out["sine2_g_star_inv"] = M
    out["sine2_c"] = c_tensor(Z, M, W)
    out["sine2_trace_integral"] = float(s)
    out["sine2_det"] = float(np.linalg.det(Z))

    fs, jacs, hesss = swap_fields(0.6, 1.1)
    xs = np.array([0.5, -0.2])
    lo = rk4(jet_rhs(fs, jacs, hesss, 2), 0.0, 0.8, jet_init(xs, 2), 1 << 13)
    hi = rk4(jet_rhs(fs, jacs, hesss, 2), 0.0, 0.8, jet_init(xs, 2), 1 << 14)
    out["swap2_jet_check"] = float(np.abs(hi - lo).max())
    y, Z, M, W, s = unpack_jet(hi, 2)
    out["swap2_y"] = y
    out["swap2_g_star"] = Z
    out["swap2_c"] = c_tensor(Z, M, W)
    out["swap2_trace_integral"] = float(s)

    m2 = lambda t, y: np.array([0.3, -0.1])
    s2 = lambda t, y: np.array([[0.9, 0.2], [0.0, 1.1]])
    mt2_lo, st2_lo = transformed_coefficients(fs, jacs, hesss, 2, 0.8, xs,
                                              m2, s2, 1 << 12)
    mt2, st2 = transformed_coefficients(fs, jacs, hesss, 2, 0.8, xs,
                                        m2, s2, 1 << 13)
    out["swap2_coeff_check"] = float(max(np.abs(mt2 - mt2_lo).max(),
                                         np.abs(st2 - st2_lo).max()))
    out["swap2_m_tilde"] = mt2
    out["swap2_sigma_tilde"] = st2

    f1, jac1, hess1 = sine_fields(1.0, 1.0)
    m_fn = lambda t, y: np.array([0.5])
    s_fn = lambda t, y: np.array([[1.0]])
    mt_lo, st_lo = transformed_coefficients(f1, jac1, hess1, 1, 0.5,
                                            np.array([0.2]), m_fn, s_fn, 1 << 12)
    mt, st = transformed_coefficients(f1, jac1, hess1, 1, 0.5,
                                      np.array([0.2]), m_fn, s_fn, 1 << 13)
    out["sine1_coeff_check"] = float(max(np.abs(mt - mt_lo).max(),
                                         np.abs(st - st_lo).max()))
    out["sine1_m_tilde"] = mt
    out["sine1_sigma_tilde"] = st
    return out


if __name__ == "__main__":
    np.set_printoptions(precision=17)
    for k, v in frozen_values().items():
        print(f"{k} = {v!r}")
