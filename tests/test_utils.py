"""Noise blocks, quasi-random sampling, the serial chunk loop, the
embedded Runge-Kutta integrator, and the runtime's imports."""

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

from detrend_sde import FlowIntegrationError, normal_block, rademacher_block
from detrend_sde import parallel, rk
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


def test_sample_time_box_include_ends():
    lo, hi = np.array([0.0]), np.array([1.0])
    ts, xs = sample_time_box((0.25, 2.0), lo, hi, 64, seed=0, include_ends=True)
    assert ts.shape[0] == xs.shape[0]
    assert np.any(ts == 0.25) and np.any(ts == 2.0)
    assert ts.min() >= 0.25 and ts.max() <= 2.0


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


def test_rk_linear_vs_expm():
    b = np.array([[0.2, -1.0], [0.5, 0.1]])

    def rhs(t, y):
        return y @ b.T
    y0 = np.array([[1.0, -0.5], [0.3, 2.0]])
    got = rk.integrate(rhs, 0.0, 1.3, y0, rtol=1e-12, atol=1e-14)
    want = y0 @ expm(1.3 * b).T
    assert_allclose(got, want, rtol=RK_TOL, atol=RK_TOL)


def test_rk_backward_direction():
    def rhs(t, y):
        return -y
    got = rk.integrate(rhs, 1.0, 0.0, np.array([[np.exp(-1.0)]]),
                       rtol=1e-12, atol=1e-14)
    assert_allclose(got, [[1.0]], rtol=1e-9)


def test_rk_zero_span_is_identity():
    y0 = np.array([[1.0, 2.0]])
    got = rk.integrate(lambda t, y: y, 0.5, 0.5, y0)
    assert np.array_equal(got, y0)


def _logistic(t, y):
    return np.sin(t) * y * (1.0 - 0.3 * y)


def test_rk_per_row_end_times_match_single_solves():
    # Unsorted, duplicate and == t0 end times, forward and backward.
    y0 = np.array([[0.4, -1.2], [1.5, 0.2], [-0.7, 0.9], [0.1, 2.0],
                   [0.8, -0.3]])
    for t0, ends in ((0.2, [1.3, 0.2, 0.7, 1.3, 0.45]),
                     (1.0, [0.1, 1.0, 0.6, 0.1, -0.4])):
        got = rk.integrate(_logistic, t0, np.array(ends), y0, rtol=RK_TOL)
        for i, t1 in enumerate(ends):
            want = rk.integrate(_logistic, t0, t1, y0[i:i + 1], rtol=RK_TOL)[0]
            assert_allclose(got[i], want, rtol=10 * RK_TOL, atol=10 * RK_TOL)
        assert np.array_equal(got[ends.index(t0)], y0[ends.index(t0)])


def test_rk_equal_end_times_are_the_scalar_bits():
    y0 = np.array([[0.4, -1.2], [1.5, 0.2], [-0.7, 0.9]])
    scalar = rk.integrate(_logistic, 0.0, 0.9, y0)
    assert np.array_equal(rk.integrate(_logistic, 0.0, np.full(3, 0.9), y0),
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


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 1000))
def test_noise_block_shapes(seed, step):
    x = normal_block(seed, step, 3, 4)
    assert x.shape == (3, 4) and np.all(np.isfinite(x))
