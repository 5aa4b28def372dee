"""End-to-end acceptance checks.

Each test exercises one release gate at full scale and prints a single
summary line directly to the terminal (bypassing capture), then asserts.
Run with plain pytest; the lines read

    [ACCEPTANCE] 01 flow-round-trip: PASS (max 2.1e-09; 3.2 s)
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

from detrend_sde import (ConvergenceTable, advance_flow_many, builtin_model,
                         broken_line, flow_jet_many, flow_time_derivatives,
                         inverse_flow_many, inverse_jacobian_product,
                         jacobian_limit_check, make_partition, make_transform,
                         product_jacobian, pushforward_discrepancy,
                         simulate_chain, strong_order_estimate,
                         transform_chain, weak_error_compare)
from detrend_sde.sampling import sample_box
from tests._oracles import rk4

ACCEPT_MODELS = {
    "zero_drift": dict(dim=3),
    "linear": dict(b=[[0.3, -0.5], [0.2, 0.1]]),
    "sine": dict(alpha=0.8, beta=1.3, dim=2),
    "scalar_logistic_bounded": dict(a=1.0),
}

ROUNDTRIP_TOL = 1e-7
LIOUVILLE_TOL = 1e-7
DERIVATIVE_TOL = 1e-4
FD_STEP = 1e-5
LINEAR_COEFF_TOL = 1e-8
LINEAR_C_TOL = 1e-9
CHAIN_PRODUCT_TOL = 1e-10
TELESCOPE_TOL = 1e-12
INVERSE_PRODUCT_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
IDENTITY_TOL = 1e-9
WEAK_Z_MAX = 3.0


_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    # Stash the capture fixture so announce() can print through it.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def announce(num: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE] {num:02d} {name}: {verdict} ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _models():
    return {name: builtin_model(name, **kw) for name, kw in ACCEPT_MODELS.items()}


def _time_buckets(horizon, n_t):
    # Strictly positive times; t = 0 is the identity and proves nothing.
    return np.linspace(horizon / n_t, horizon, n_t)


def test_criterion_01_flow_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for mi, model in enumerate(_models().values()):
        d = model.dim
        for ti, t in enumerate(_time_buckets(model.horizon, 20)):
            ys = sample_box(np.full(d, -2.0), np.full(d, 2.0), 10,
                            seed=100 * mi + ti)
            xs = inverse_flow_many(model.drift, float(t), ys)
            back = advance_flow_many(model.drift, 0.0, float(t), xs)
            worst = max(worst, float(np.linalg.norm(back - ys, axis=1).max()))
    elapsed = time.perf_counter() - start
    passed = worst <= ROUNDTRIP_TOL and elapsed < 10.0
    announce(1, "flow-round-trip",
             passed, f"max {worst:.1e}; {elapsed:.1f} s")
    assert worst <= ROUNDTRIP_TOL
    assert elapsed < 10.0


def test_criterion_02_liouville_identity():
    worst = 0.0
    for mi, model in enumerate(_models().values()):
        d = model.dim
        for ti, t in enumerate(_time_buckets(model.horizon, 10)):
            xs = sample_box(np.full(d, -2.0), np.full(d, 2.0), 10,
                            seed=200 * mi + ti)
            jets = flow_jet_many(model.drift, 0.0, float(t), xs, order=1)
            det = jets["det_g_star"]
            via_trace = np.exp(jets["trace_integral"])
            worst = max(worst, float(np.abs(det - via_trace).max()
                                     / np.abs(via_trace).max()))
    passed = worst <= LIOUVILLE_TOL
    announce(2, "liouville-identity", passed, f"max rel {worst:.1e}")
    assert passed


def test_criterion_03_time_derivative_checks():
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    drift = model.drift
    worst = 0.0
    for ti, t in enumerate(np.linspace(0.1, 1.0, 10)):
        t = float(t)
        xs = sample_box(np.full(2, -2.0), np.full(2, 2.0), 10, seed=300 + ti)
        ys = advance_flow_many(drift, 0.0, t, xs)
        # Batched centered differences for both derivative identities.
        inv_p = inverse_flow_many(drift, t + FD_STEP, ys)
        inv_m = inverse_flow_many(drift, t - FD_STEP, ys)
        fwd_p = advance_flow_many(drift, FD_STEP, t, xs)
        fwd_m = advance_flow_many(drift, -FD_STEP, t, xs)
        for i in range(xs.shape[0]):
            d_fwd, d_inv = flow_time_derivatives(drift, 0.0, t, xs[i])
            fd_inv = (inv_p[i] - inv_m[i]) / (2 * FD_STEP)
            fd_fwd = (fwd_p[i] - fwd_m[i]) / (2 * FD_STEP)
            err_i = np.linalg.norm(fd_inv - d_inv) / max(
                np.linalg.norm(d_inv), 1e-12)
            err_f = np.linalg.norm(fd_fwd - d_fwd) / max(
                np.linalg.norm(d_fwd), 1e-12)
            worst = max(worst, float(err_i), float(err_f))
    passed = worst <= DERIVATIVE_TOL
    announce(3, "time-derivative-fd", passed, f"max rel {worst:.1e}")
    assert passed


def test_criterion_04_linear_exactness():
    b = np.array([[0.3, -0.5], [0.2, 0.1]])
    model = builtin_model("linear", b=b.tolist(), m0=0.7, sigma0=1.2)
    tc = make_transform(model)
    m_vec = 0.7 * np.ones(2)
    worst_coeff = worst_c = 0.0
    for t in (0.2, 0.6, 1.0):
        xs = sample_box(np.full(2, -2.0), np.full(2, 2.0), 5, seed=40)
        m_t, s_t, jets = tc.evaluate_batch(t, xs, return_jets=True)
        phi_inv = expm(-t * b)
        worst_coeff = max(worst_coeff,
                          float(np.abs(m_t - phi_inv @ m_vec).max()),
                          float(np.abs(s_t - 1.2 * phi_inv).max()))
        worst_c = max(worst_c, float(np.abs(jets["c"]).max()))

    # Time-varying rate: coefficients must follow the fundamental matrix
    # of x' = b(t) x, reproduced here with an independent integrator.
    def bt(t):
        return np.array([[0.1 + 0.4 * t, -0.3], [0.2, -0.1 * t]])
    model_t = builtin_model("linear", b=lambda t: bt(t), dim=2, m0=0.5,
                            sigma0=1.0)
    tc_t = make_transform(model_t)
    for t in (0.35, 0.9):
        def rhs(s, yy):
            return (bt(s) @ yy.reshape(2, 2)).ravel()
        phi = rk4(rhs, 0.0, t, np.eye(2).ravel(), 4000).reshape(2, 2)
        m_t, s_t, jets = tc_t.evaluate_batch(t, np.zeros((1, 2)),
                                             return_jets=True)
        want = np.linalg.solve(phi, 0.5 * np.ones(2))
        worst_coeff = max(worst_coeff, float(np.abs(m_t[0] - want).max()))
        worst_c = max(worst_c, float(np.abs(jets["c"]).max()))

    # Chain coefficients: uniform grid product form.
    p = make_partition(64, "uniform", T=model.horizon)
    run = simulate_chain(model, p, 10, seed=0)
    tr = transform_chain(model, p, run, quad_nodes=2)
    h = p.steps[0]
    prod = np.eye(2)
    worst_chain = 0.0
    for k in range(p.n):
        prod = (np.eye(2) + h * b) @ prod
        inv_prod = np.linalg.inv(prod)
        worst_chain = max(worst_chain,
                          float(np.abs(tr.m_coeffs[:, k] - inv_prod @ m_vec).max()),
                          float(np.abs(tr.sigma_coeffs[:, k] - 1.2 * inv_prod).max()))
    passed = (worst_coeff <= LINEAR_COEFF_TOL and worst_c <= LINEAR_C_TOL
              and worst_chain <= CHAIN_PRODUCT_TOL)
    announce(4, "linear-exactness", passed,
             f"coeff {worst_coeff:.1e}; c {worst_c:.1e}; chain {worst_chain:.1e}")
    assert worst_coeff <= LINEAR_COEFF_TOL
    assert worst_c <= LINEAR_C_TOL
    assert worst_chain <= CHAIN_PRODUCT_TOL


def test_criterion_05_telescoping_and_inverse_product():
    rng = np.random.default_rng(5)
    worst_tel = worst_inv = 0.0
    for d in (1, 2, 3):
        model = builtin_model("sine", alpha=0.8, beta=1.3, dim=d)
        lin = builtin_model("linear",
                            b=(0.4 * rng.standard_normal((d, d))).tolist())
        for drift in (model.drift, lin.drift):
            for n in (10, 100, 1000):
                p = make_partition(n, "uniform", T=1.0)
                x0 = rng.uniform(-1.5, 1.5, size=d)
                bl = broken_line(drift, p, x0)
                worst_tel = max(worst_tel, float(
                    np.abs(bl.jacobians[n] - product_jacobian(bl, n)).max()))
                worst_inv = max(worst_inv, float(
                    np.abs(inverse_jacobian_product(bl, n)
                           - np.linalg.inv(bl.jacobians[n])).max()))
    passed = worst_tel <= TELESCOPE_TOL and worst_inv <= INVERSE_PRODUCT_TOL
    announce(5, "telescoping-product", passed,
             f"sum-vs-product {worst_tel:.1e}; inverse {worst_inv:.1e}")
    assert worst_tel <= TELESCOPE_TOL
    assert worst_inv <= INVERSE_PRODUCT_TOL


def test_criterion_06_discrete_gronwall_bound():
    worst_margin = np.inf
    ok = True
    for model in _models().values():
        bound = np.sqrt(model.dim) * np.exp(model.drift.m_f * model.horizon)
        for kind in ("uniform", "geometric"):
            for n in (100, 1000, 10000):
                p = make_partition(n, kind, T=model.horizon, c=1.0)
                bl = broken_line(model.drift, p, model.x0)
                sup = float(np.linalg.norm(bl.jacobians, axis=(1, 2)).max())
                ok = ok and sup <= bound
                worst_margin = min(worst_margin, bound - sup)
    announce(6, "discrete-gronwall", ok, f"min margin {worst_margin:.2e}")
    assert ok


def test_criterion_07_chain_reconstruction_and_identity():
    worst_rec = worst_id = 0.0
    for model in _models().values():
        p = make_partition(256, "uniform", T=model.horizon)
        run = simulate_chain(model, p, 100, seed=7)
        tr = transform_chain(model, p, run, quad_nodes=8)
        assert not tr.flagged.any()
        worst_rec = max(worst_rec, float(np.nanmax(tr.reconstruction_residuals)))
        worst_id = max(worst_id, float(np.nanmax(tr.identity_residuals)))
    passed = worst_rec <= RECONSTRUCTION_TOL and worst_id <= IDENTITY_TOL
    announce(7, "chain-reconstruction", passed,
             f"reconstruction {worst_rec:.1e}; identity {worst_id:.1e}")
    assert worst_rec <= RECONSTRUCTION_TOL
    assert worst_id <= IDENTITY_TOL


def test_criterion_08_pushforward_consistency():
    start = time.perf_counter()
    model = builtin_model("sine")
    tc = make_transform(model)
    tables = [pushforward_discrepancy(tc, n, 1000, seed=8)
              for n in (512, 1024, 2048)]
    elapsed = time.perf_counter() - start
    means = [t.terminal_mean for t in tables]
    conv = strong_order_estimate(tables)
    decreasing = means[0] > means[1] > means[2]
    passed = decreasing and conv.slope >= 0.4 and elapsed < 120.0
    announce(8, "pushforward-consistency", passed,
             f"means {means[0]:.2e}>{means[1]:.2e}>{means[2]:.2e}; "
             f"order {conv.slope:.2f}; {elapsed:.0f} s")
    assert decreasing
    assert conv.slope >= 0.4
    assert elapsed < 120.0


def test_criterion_09_weak_consistency():
    worst_z = 0.0
    for name, kw in (("linear", dict(b=0.5)), ("sine", {})):
        model = builtin_model(name, **kw)
        tc = make_transform(model)
        rep = weak_error_compare(
            tc, 512, 10_000, seed=9,
            test_functions=[("sq_norm", lambda y: (y ** 2).sum(axis=1))])
        worst_z = max(worst_z, abs(rep.rows[0].z_score))
    passed = worst_z <= WEAK_Z_MAX
    announce(9, "weak-consistency", passed, f"max |z| {worst_z:.2f}")
    assert passed


def test_criterion_10_jacobian_limit_order():
    slopes = []
    for name, kw in (("sine", dict(alpha=0.8, beta=1.3, dim=2)),
                     ("linear", dict(b=0.9))):
        model = builtin_model(name, **kw)
        tab = jacobian_limit_check(model.drift, model.x0, model.horizon,
                                   [64, 128, 256, 512])
        slopes.append(tab.slope)
    ok = all(0.8 <= s <= 1.2 for s in slopes)
    announce(10, "jacobian-limit-order", ok,
             "orders " + ", ".join(f"{s:.2f}" for s in slopes))
    assert ok


def test_criterion_11_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "detrend_sde"]
    fast = ["--set", "simulation.n_paths=8", "--set", "simulation.n_steps=32",
            "--set", "partition.n=32"]
    jobs = {
        "transform-sde": ["transform-sde", "--set", "simulation.n_paths=8",
                          "--set", "simulation.n_steps=32"],
        "transform-chain": ["transform-chain", *fast],
        "verify": ["verify", *fast],
    }
    all_ok = True
    for name, args in jobs.items():
        outs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}"
            proc = subprocess.run([*base, *args, "--out", str(out)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr)
            outs.append(sorted(out.iterdir()))
        names_a = [f.name for f in outs[0]]
        names_b = [f.name for f in outs[1]]
        same = names_a == names_b and all(
            a.read_bytes() == b.read_bytes() for a, b in zip(*outs))
        all_ok = all_ok and same
    announce(11, "cli-determinism", all_ok,
             "3 subcommands, byte-identical reruns" if all_ok else "mismatch")
    assert all_ok
