"""Noise blocks, quasi-random sampling, the serial chunk loop, the
embedded Runge-Kutta integrator, the runtime's imports and the public
surface."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

import detrend_sde
from detrend_sde import FlowIntegrationError, normal_block, rademacher_block
from detrend_sde import (chain, diagnostics, flow, models, parallel, rk,
                         transform)
from detrend_sde.sampling import _primes, sample_box, sample_time_box

RK_TOL = 1e-10


def test_normal_block_deterministic():
    a = normal_block(7, 3, 50, 2)
    b = normal_block(7, 3, 50, 2)
    assert a.shape == (50, 2)
    assert np.array_equal(a, b)


def test_normal_block_prefix_stable():
    # Row p depends only on (seed, step, p, dim): growing the batch must
    # not disturb earlier paths.
    big = normal_block(11, 5, 64, 3)
    small = normal_block(11, 5, 16, 3)
    assert np.array_equal(big[:16], small)


def test_normal_block_decorrelated_across_steps():
    a = normal_block(0, 0, 2000, 1).ravel()
    b = normal_block(0, 1, 2000, 1).ravel()
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
    assert abs(a.mean()) < 0.1 and abs(a.std() - 1.0) < 0.1


def test_normal_block_seed_sensitivity():
    assert not np.array_equal(normal_block(0, 0, 8, 2), normal_block(1, 0, 8, 2))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        normal_block(-1, 0, 4, 1)


def test_rademacher_values():
    x = rademacher_block(3, 9, 500, 2)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert np.array_equal(x, rademacher_block(3, 9, 500, 2))


def test_sample_box_bounds_and_determinism():
    lo, hi = np.array([-1.0, 2.0]), np.array([1.0, 5.0])
    xs = sample_box(lo, hi, 200, seed=4)
    assert xs.shape == (200, 2)
    assert np.all(xs >= lo) and np.all(xs <= hi)
    assert np.array_equal(xs, sample_box(lo, hi, 200, seed=4))
    assert not np.array_equal(xs, sample_box(lo, hi, 200, seed=5))


def test_sample_box_is_stratified_per_base():
    # Coordinate i uses the i-th prime b; a bijective scramble of every
    # digit keeps the Halton property that the first b^k points fall one
    # per b-adic interval of length b^-k.
    assert _primes(6) == [2, 3, 5, 7, 11, 13]
    for seed in (0, 1, 7):
        u = sample_box(np.zeros(4), np.ones(4), 1024, seed)
        assert np.all((u >= 0.0) & (u < 1.0))
        for col, b in enumerate(_primes(4)):
            k = 1
            while b ** k <= u.shape[0]:
                cells = np.floor(u[:b ** k, col] * b ** k).astype(int)
                assert np.array_equal(np.sort(cells), np.arange(b ** k)), (b, k)
                k += 1


def test_import_does_not_load_scipy():
    # The runtime needs only numpy; scipy is a test dependency.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, detrend_sde; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_public_surface():
    names = detrend_sde.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(detrend_sde, name) is not None, name
    gone = [(flow, "liouville_determinant"), (diagnostics, "_scan_chain"),
            (transform, "_eval_single"),
            (transform.TransformedCoefficients, "m_tilde"),
            (transform.TransformedCoefficients, "sigma_tilde"),
            (transform.DiscrepancyTable, "terminal_max"),
            (chain.Partition, "floor_index"),
            (diagnostics.ConvergenceTable, "to_dict"),
            (diagnostics.ConvergenceTable, "fit_residual"),
            (diagnostics.WeakErrorReport, "shared_noise"),
            (diagnostics.WeakErrorReport, "strong_discrepancy"),
            (diagnostics.WeakErrorReport, "to_dict"),
            (diagnostics.WeakErrorRow, "to_dict"),
            (models.AssumptionReport, "to_dict"),
            (models, "drift_from_function"), (models, "fd_jacobian"),
            (models, "fd_hessian"), (models, "SamplingPlan"),
            (detrend_sde, "drift_from_function"), (detrend_sde, "fd_jacobian"),
            (detrend_sde, "fd_hessian"), (detrend_sde, "SamplingPlan"),
            (models.DriftSpec, "jac_from_fd"), (models.DriftSpec, "hess_from_fd"),
            (models.AssumptionReport, "plan"),
            (models.AssumptionReport, "tolerance"),
            (models.AssumptionReport, "k_constant"),
            (chain.BrokenLine, "base"), (chain.TransformedChainRun, "source")]
    for owner, name in gone:
        assert name not in names
        assert not hasattr(owner, name), name
        if dataclasses.is_dataclass(owner):
            assert name not in {f.name for f in dataclasses.fields(owner)}, name
    for fn, option in ((rk.integrate, "max_steps"),
                       (models.check_assumptions, "tol"),
                       (models.check_assumptions, "plan"),
                       (diagnostics.boundedness_scan, "box"),
                       (diagnostics.weak_error_compare, "shared_noise")):
        assert option not in inspect.signature(fn).parameters, option


def test_sample_time_box_include_ends():
    lo, hi = np.array([0.0]), np.array([1.0])
    ts, xs = sample_time_box((0.25, 2.0), lo, hi, 64, seed=0, include_ends=True)
    assert ts.shape[0] == xs.shape[0]
    assert np.any(ts == 0.25) and np.any(ts == 2.0)
    assert ts.min() >= 0.25 and ts.max() <= 2.0


def test_sample_time_box_deterministic_with_pinned_ends():
    t1, x1 = sample_time_box((0.0, 1.0), np.zeros(2), np.ones(2), 32, 9,
                             include_ends=True)
    t2, x2 = sample_time_box((0.0, 1.0), np.zeros(2), np.ones(2), 32, 9,
                             include_ends=True)
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)
    # Boundary pinning appends a slab at each end of the time span.
    assert x1.shape[0] >= 32 and x1.shape[1] == 2
    assert t1.min() == 0.0 and t1.max() == 1.0


def test_sample_time_box_accepts_scalar_bounds():
    ts, xs = sample_time_box((0, 1), 0.0, 1.0, 4, 0)
    ts_a, xs_a = sample_time_box((0, 1), [0.0], [1.0], 4, 0)
    assert xs.shape == (4, 1)
    assert np.array_equal(ts, ts_a) and np.array_equal(xs, xs_a)


def test_run_chunked_matches_serial(monkeypatch):
    monkeypatch.setenv(parallel.ENV_THREADS, "4")
    out = np.zeros(97)

    def work(sl):
        out[sl] = np.arange(sl.start, sl.stop) ** 2
    parallel.run_chunked(work, 97)
    assert_allclose(out, np.arange(97.0) ** 2)


def test_run_chunked_walks_blocks_in_order():
    # The benchmark's tracer calls it as fn(work, n_items, workers, block).
    seen = []
    parallel.run_chunked(seen.append, 25, 2, 10)
    assert seen == [slice(0, 10), slice(10, 20), slice(20, 25)]
    parallel.run_chunked(seen.append, 0, None, None)
    assert len(seen) == 3


def test_rk_tableau_order_conditions():
    # A mistyped coefficient would hide inside the solve tolerance of
    # every other test; the order conditions catch it.  Rows of A carry
    # the rounding of coefficients up to 43, hence the scaled bound.
    for c, row in zip(rk._C[1:], rk._A):
        a = [a for _, a in row]
        assert abs(math.fsum(a) - c) <= 1e-15 * max(1.0, math.fsum(map(abs, a)))
    b = [(rk._C[j], w) for j, w in rk._B]
    for k in range(8):
        assert abs(math.fsum(w * c ** k for c, w in b) - 1 / (k + 1)) <= 1e-15
    # Eighth order, not ninth.
    assert abs(math.fsum(w * c ** 8 for c, w in b) - 1 / 9) > 1e-6
    for e in (rk._E5, rk._E3):
        assert abs(math.fsum(w for _, w in e)) <= 1e-15


def test_rk_linear_vs_expm():
    b = np.array([[0.2, -1.0], [0.5, 0.1]])

    def rhs(t, y):
        return y @ b.T
    y0 = np.array([[1.0, -0.5], [0.3, 2.0]])
    got, _ = rk.integrate(rhs, 0.0, 1.3, y0, rtol=1e-12, atol=1e-14)
    want = y0 @ expm(1.3 * b).T
    assert_allclose(got, want, rtol=RK_TOL, atol=RK_TOL)


def test_rk_backward_direction():
    def rhs(t, y):
        return -y
    got, _ = rk.integrate(rhs, 1.0, 0.0, np.array([[np.exp(-1.0)]]),
                          rtol=1e-12, atol=1e-14)
    assert_allclose(got, [[1.0]], rtol=1e-9)


def test_rk_zero_span_is_identity():
    y0 = np.array([[1.0, 2.0]])
    got, h = rk.integrate(lambda t, y: y, 0.5, 0.5, y0)
    assert np.array_equal(got, y0) and h is None


def _logistic(t, y):
    return np.sin(t) * y * (1.0 - 0.3 * y)


def test_rk_per_row_end_times_match_single_solves():
    # Unsorted, duplicate and == t0 end times, forward and backward.
    y0 = np.array([[0.4, -1.2], [1.5, 0.2], [-0.7, 0.9], [0.1, 2.0],
                   [0.8, -0.3]])
    for t0, ends in ((0.2, [1.3, 0.2, 0.7, 1.3, 0.45]),
                     (1.0, [0.1, 1.0, 0.6, 0.1, -0.4])):
        got, _ = rk.integrate(_logistic, t0, np.array(ends), y0, rtol=RK_TOL)
        for i, t1 in enumerate(ends):
            want = rk.integrate(_logistic, t0, t1, y0[i:i + 1], rtol=RK_TOL)[0][0]
            assert_allclose(got[i], want, rtol=10 * RK_TOL, atol=10 * RK_TOL)
        assert np.array_equal(got[ends.index(t0)], y0[ends.index(t0)])


def test_rk_equal_end_times_are_the_scalar_bits():
    y0 = np.array([[0.4, -1.2], [1.5, 0.2], [-0.7, 0.9]])
    scalar, _ = rk.integrate(_logistic, 0.0, 0.9, y0)
    assert np.array_equal(rk.integrate(_logistic, 0.0, np.full(3, 0.9), y0)[0],
                          scalar)


@pytest.mark.parametrize("ends", [[0.5, -0.5], [0.5, np.nan], [np.inf, 1.0]])
def test_rk_rejects_bad_end_times(ends):
    with pytest.raises(ValueError):
        rk.integrate(_logistic, 0.0, np.array(ends), np.ones((2, 1)))


def test_rk_failure_after_a_row_retired_reports_progress():
    def rhs(t, y):
        return y * y
    # Both rows blow up at t = 1; the first retires before that.
    with pytest.raises(FlowIntegrationError) as exc:
        rk.integrate(rhs, 0.0, np.array([0.5, 2.0]), np.ones((2, 1)))
    assert 0.9 <= exc.value.t_reached <= 1.05


def test_rk_nonfinite_raises():
    def rhs(t, y):
        return y * y
    # Blows up at t = 1/y0; the integrator must fail loudly, reporting
    # how far it got.
    with pytest.raises(FlowIntegrationError) as exc:
        rk.integrate(rhs, 0.0, 2.0, np.array([[1.0]]))
    assert 0.9 <= exc.value.t_reached <= 1.05


def test_rk_step_budget_exhausted(monkeypatch):
    # This solve takes about 40 steps; ten end well short of t = 5, and
    # the error says how far they got.
    monkeypatch.setattr(rk, "_MAX_STEPS", 10)
    with pytest.raises(FlowIntegrationError, match="step budget exhausted") as exc:
        rk.integrate(_logistic, 0.0, 5.0, np.array([[0.4]]), rtol=1e-12)
    assert 0.0 < exc.value.t_reached < 5.0
    # The time prints and travels as a Python float, not a numpy scalar.
    assert "np.float64" not in str(exc.value)
    assert type(exc.value.t_reached) is float


def test_rk_warm_start_skips_the_initial_step_estimate(monkeypatch):
    y0 = np.array([[0.4, -1.2], [1.5, 0.2], [-0.7, 0.9]])
    cold, h_cold = rk.integrate(_logistic, 0.0, 1.7, y0, rtol=RK_TOL)

    def no_estimate(*args, **kwargs):
        raise AssertionError("a warm start must not estimate its first step")
    monkeypatch.setattr(rk, "_initial_step", no_estimate)
    warm, h = rk.integrate(_logistic, 0.0, 1.7, y0, rtol=RK_TOL, h0=h_cold)
    assert np.all(np.abs(warm - cold) <= 10 * RK_TOL * (1 + np.abs(cold)))
    assert np.isfinite(h) and h > 0
    # A first step longer than the span ends exactly at t1.
    times = []

    def linear(t, y):
        times.append(t)
        return -y
    got, h = rk.integrate(linear, 0.0, 0.3, y0, rtol=RK_TOL, h0=10.0)
    assert max(times) <= 0.3 * (1 + 4 * np.finfo(float).eps)
    assert_allclose(got, y0 * np.exp(-0.3), rtol=10 * RK_TOL)
    assert np.isfinite(h) and h > 0



@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 1000))
def test_noise_block_shapes(seed, step):
    x = normal_block(seed, step, 3, 4)
    assert x.shape == (3, 4) and np.all(np.isfinite(x))
