"""Partitions, broken lines, chain inversion, and the discrete transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from detrend_sde import (DriftSpec, InversionError, builtin_model,
                         broken_line, inverse_jacobian_product,
                         invert_broken_line, jacobian_limit_check,
                         make_partition, product_jacobian, simulate_chain,
                         simulate_original, transform_chain)
from detrend_sde import chain
from detrend_sde.chain import ChainRun, solve_small
from tests._oracles import fixed_rule_chain
from tests.conftest import make_swap_drift

TELESCOPE_TOL = 1e-12
INVERSE_PRODUCT_TOL = 1e-10
LINEAR_COEFF_TOL = 1e-10
IDENTITY_Q8_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8


def test_uniform_partition_layout():
    p = make_partition(8, "uniform", T=2.0)
    assert p.n == 8
    assert p.times[0] == 0.0 and p.times[-1] == 2.0
    assert_allclose(p.steps, 0.25)
    assert p.ratio_c == pytest.approx(1.0)


def test_geometric_partition_bounded_ratio():
    p = make_partition(50, "geometric", T=1.0, c=1.0)
    assert p.times[0] == 0.0
    assert p.times[-1] == pytest.approx(1.0, abs=1e-14)
    # Ratio (1 + c/n)^(n-1) stays below e^c.
    assert p.ratio_c <= np.e
    assert np.all(np.diff(p.steps) > 0)


def test_unknown_partition_kind():
    with pytest.raises(ValueError):
        make_partition(4, "fibonacci")


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 200), st.floats(0.1, 2.0))
def test_geometric_partition_invariants(n, c):
    p = make_partition(n, "geometric", T=1.5, c=c)
    assert p.steps.size == n
    assert np.all(p.steps > 0)
    assert p.steps.sum() == pytest.approx(1.5, abs=1e-12)
    assert p.ratio_c <= np.exp(c) * (1 + 1e-12)


def test_broken_line_linear_closed_form():
    drift = builtin_model("linear", b=0.7).drift
    p = make_partition(16, "geometric", T=1.0, c=0.8)
    bl = broken_line(drift, p, np.array([2.0]))
    factors = np.concatenate([[1.0], np.cumprod(1.0 + 0.7 * p.steps)])
    assert_allclose(bl.values[:, 0], 2.0 * factors, rtol=1e-14)
    assert_allclose(bl.jacobians[:, 0, 0], factors, rtol=1e-14)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_summed_recursion_equals_ordered_product(n):
    drift = make_swap_drift()
    p = make_partition(n, "uniform", T=1.0)
    bl = broken_line(drift, p, np.array([0.4, -0.1]))
    for k in (n // 2, n):
        diff = np.abs(bl.jacobians[k] - product_jacobian(bl, k)).max()
        assert diff <= TELESCOPE_TOL


def test_inverse_product_route(swap_drift):
    p = make_partition(64, "geometric", T=1.0, c=1.0)
    bl = broken_line(swap_drift, p, np.array([0.2, 0.6]))
    direct = np.linalg.inv(bl.jacobians[64])
    assert np.abs(inverse_jacobian_product(bl, 64) - direct).max() <= INVERSE_PRODUCT_TOL


def test_broken_line_evaluates_each_layer_once(swap_drift):
    # The layer matrices are kept from the broken line's own pass; the
    # products read them and evaluate no drift derivative again.
    calls = []
    jac = swap_drift.jac
    swap_drift.jac = lambda t, x: calls.append(t) or jac(t, x)
    p = make_partition(16, "geometric", T=1.0, c=1.0)
    bl = broken_line(swap_drift, p, np.array([0.2, 0.6]))
    assert calls == p.times[:-1].tolist()
    for j in (0, 7, 15):
        A = np.eye(2) + p.steps[j] * jac(p.times[j], bl.values[j][None])[0]
        assert np.array_equal(bl.layers[j], A)
    product_jacobian(bl, 16)
    inverse_jacobian_product(bl, 16)
    assert len(calls) == 16
    assert np.array_equal(product_jacobian(bl, 0), np.eye(2))
    assert np.array_equal(inverse_jacobian_product(bl, 0), np.eye(2))


def test_gronwall_bound_both_partitions():
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    bound = np.sqrt(2) * np.exp(model.drift.m_f * model.horizon)
    for kind in ("uniform", "geometric"):
        p = make_partition(1000, kind, T=model.horizon, c=1.0)
        bl = broken_line(model.drift, p, model.x0)
        norms = np.linalg.norm(bl.jacobians, axis=(1, 2))
        assert norms.max() <= bound


def test_chain_matches_original_euler_bitwise():
    model = builtin_model("sine", alpha=0.6, beta=1.1, dim=2)
    p = make_partition(32, "uniform", T=model.horizon)
    run = simulate_chain(model, p, 7, seed=4)
    ens = simulate_original(model, 32, 7, seed=4)
    assert np.array_equal(run.states, ens.paths)
    assert np.array_equal(run.partition.times, ens.times)


def test_chain_regeneration_bitwise():
    model = builtin_model("sine")
    p = make_partition(16, "geometric", T=1.0, c=0.5)
    a = simulate_chain(model, p, 5, seed=11)
    b = simulate_chain(model, p, 5, seed=11)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.innovations, b.innovations)


def test_inversion_roundtrip(swap_drift):
    p = make_partition(40, "uniform", T=1.0)
    bl = broken_line(swap_drift, p, np.array([0.3, -0.5]))
    y = bl.values[40]
    x = invert_broken_line(swap_drift, p, 40, y)
    assert_allclose(x, [0.3, -0.5], atol=1e-10)
    assert invert_broken_line(swap_drift, p, 0, y) is not y


def test_inversion_of_large_states_meets_relative_tolerance():
    # The trend is meant to grow without bound, so large chain states
    # must invert too; an absolute composite test cannot be met at
    # |y| ~ 1e4, where one ulp of y is already ~2e-12.
    drift = builtin_model("sine", alpha=0.8, beta=1.3, dim=2).drift
    p = make_partition(64, "geometric", T=1.0)
    rng = np.random.default_rng(0)
    for y, k in zip(rng.uniform(-1e4, 1e4, (200, 2)),
                    rng.integers(1, p.n + 1, 200)):
        x = invert_broken_line(drift, p, int(k), y)
        resid = np.linalg.norm(broken_line(drift, p, x).values[k] - y)
        assert resid <= chain.DEFAULT_INVERSION_TOL * (1.0 + np.abs(y).max())


def test_unreachable_inversion_tolerance_raises_with_residual():
    drift = builtin_model("sine", alpha=0.8, beta=1.3, dim=2).drift
    p = make_partition(64, "geometric", T=1.0)
    with pytest.raises(InversionError) as exc:
        invert_broken_line(drift, p, 40, np.array([0.7, -1.2]), tol=1e-300)
    assert np.isfinite(exc.value.residual)


def test_inversion_contraction_guard():
    drift = builtin_model("sine").drift  # m_f = 1
    p = make_partition(1, "uniform", T=1.0)  # h = 1, h*m_f >= 1/2
    with pytest.raises(InversionError):
        invert_broken_line(drift, p, 1, np.array([0.2]))


@pytest.mark.parametrize("seed", [3, 8])
def test_default_quadrature_passes_identity_gate(seed):
    # Sine d=2 on a geometric n=32 partition: 8 Gauss-Legendre nodes
    # miss the 1e-9 one-step identity on these seeds (up to 1.1e-8);
    # the default of 16 stays at rounding level.
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    p = make_partition(32, "geometric", T=model.horizon, c=1.0)
    tr = transform_chain(model, p, simulate_chain(model, p, 128, seed))
    assert tr.identity_residuals.max() <= 1e-9


def _benchmark_chain(seed):
    # The chain-detrend benchmark configuration.
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    p = make_partition(32, "geometric", T=model.horizon, c=1.0)
    return model, p, simulate_chain(model, p, 128, seed)


def test_adaptive_quadrature_matches_fixed_rule():
    # The first pass at 8 nodes, refined to 16 where the estimate
    # fails, against every path-step on the 16-node rule: the states
    # come from the same state rows, so they keep their bits, and the
    # coefficients differ by the quadrature error the estimate admits.
    refined = 0
    for seed in range(10):
        model, p, run = _benchmark_chain(seed)
        tr = transform_chain(model, p, run)
        invert = lambda lv, ys, tol: chain._invert_layers_batch(
            model.drift, p, lv, ys, tol, want_jacobian=True)
        states, m_co, s_co = fixed_rule_chain(model, p, run, invert)
        assert np.array_equal(tr.states, states, equal_nan=True), seed
        for got, ref in ((tr.m_coeffs, m_co), (tr.sigma_coeffs, s_co)):
            assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref))), seed
        assert tr.identity_residuals.max() <= 1e-9
        refined += int(tr.refined.sum())
    assert 0 < refined


def test_adaptive_quadrature_inverts_about_ten_rows_per_path_step(monkeypatch):
    # 9 first-pass rows per path-step plus 16 on the few refined ones;
    # a fixed 16-node rule inverts 17.
    rows = []
    sweep = chain._invert_layers_batch

    def counting(drift, partition, levels, ys, tol, want_jacobian=False):
        rows.append(len(ys))
        return sweep(drift, partition, levels, ys, tol, want_jacobian)
    monkeypatch.setattr(chain, "_invert_layers_batch", counting)
    model, p, run = _benchmark_chain(8)
    tr = transform_chain(model, p, run)
    assert sum(rows) == 9 * 128 * p.n + 16 * int(tr.refined.sum())
    assert 9 < sum(rows) / (128 * p.n) <= 11


def test_linear_chain_coefficients_closed_form():
    # With linear trend the averaged inverse Jacobian is u-independent:
    # m_t(k) = prod_{j<=k}(1 + h_j b)^{-1} m, same for sigma, and the
    # one-step identity holds to rounding.
    b, m0, s0 = 0.8, 0.6, 1.2
    model = builtin_model("linear", b=b, m0=m0, sigma0=s0)
    p = make_partition(32, "geometric", T=1.0, c=0.7)
    run = simulate_chain(model, p, 6, seed=2)
    factors = np.cumprod(1.0 + b * p.steps)
    # The default rule's first pass already sees a constant integrand.
    for q in (2, chain.DEFAULT_QUAD_NODES):
        tr = transform_chain(model, p, run, quad_nodes=q)
        assert not tr.refined.any()
        assert np.abs(tr.m_coeffs[:, :, 0] - m0 / factors).max() <= LINEAR_COEFF_TOL
        assert np.abs(tr.sigma_coeffs[:, :, 0, 0] - s0 / factors).max() <= LINEAR_COEFF_TOL
        assert np.nanmax(tr.identity_residuals) <= 1e-12
        assert np.nanmax(tr.reconstruction_residuals) <= 1e-10


def test_identity_residual_decreases_with_quadrature(sine2_model):
    p = make_partition(64, "uniform", T=sine2_model.horizon)
    run = simulate_chain(sine2_model, p, 8, seed=0)
    worsts = []
    for q in (2, 4, 8):
        tr = transform_chain(sine2_model, p, run, quad_nodes=q)
        worsts.append(float(np.nanmax(tr.identity_residuals)))
    assert worsts[0] > worsts[1] > worsts[2]
    assert worsts[2] <= IDENTITY_Q8_TOL


def test_reconstruction_residual(sine2_model):
    p = make_partition(128, "geometric", T=sine2_model.horizon, c=1.0)
    run = simulate_chain(sine2_model, p, 8, seed=1)
    tr = transform_chain(sine2_model, p, run, quad_nodes=8)
    assert np.nanmax(tr.reconstruction_residuals) <= RECONSTRUCTION_TOL
    assert tr.states.shape == run.states.shape
    assert np.array_equal(tr.states[:, 0], run.states[:, 0])


def test_zero_drift_chain_transform_is_identity():
    model = builtin_model("zero_drift", dim=2)
    p = make_partition(16, "uniform", T=1.0)
    run = simulate_chain(model, p, 4, seed=9)
    tr = transform_chain(model, p, run)
    assert not tr.refined.any()
    assert_allclose(tr.states, run.states, atol=1e-13)
    assert np.nanmax(tr.identity_residuals) <= 1e-13


def test_quad_nodes_validation(sine2_model):
    p = make_partition(8, "uniform", T=sine2_model.horizon)
    run = simulate_chain(sine2_model, p, 2, seed=0)
    with pytest.raises(ValueError):
        transform_chain(sine2_model, p, run, quad_nodes=1)


def test_partition_mismatch_rejected(sine2_model):
    p = make_partition(8, "uniform", T=sine2_model.horizon)
    run = simulate_chain(sine2_model, p, 2, seed=0)
    other = make_partition(8, "geometric", T=sine2_model.horizon, c=1.0)
    with pytest.raises(ValueError):
        transform_chain(sine2_model, other, run)


def test_rademacher_innovations():
    model = builtin_model("sine")
    p = make_partition(8, "uniform", T=1.0)
    run = simulate_chain(model, p, 3, seed=5, innovation="rademacher")
    assert set(np.unique(run.innovations)) == {-1.0, 1.0}


def test_jacobian_limit_order(sine2_model):
    tab = jacobian_limit_check(sine2_model.drift, sine2_model.x0,
                               sine2_model.horizon, [32, 64, 128, 256])
    assert 0.8 <= tab.slope <= 1.2
    assert tab.monotone_violations == 0


def test_chain_path_subset_bitwise(sine2_model, monkeypatch):
    # Every row of the layer Newton converges on its own test, so a path
    # gets the same bits whichever paths share its batch: in a subset
    # run, and across the path blocks of transform_chain.
    # (At this size a batch-wide stopping test changes these rows.)
    p = make_partition(32, "geometric", T=sine2_model.horizon, c=1.0)
    run = simulate_chain(sine2_model, p, 24, seed=1)
    full = transform_chain(sine2_model, p, run)
    idx = np.array([17, 0, 5])
    # The subset covers the refinement rows that join the next sweep.
    assert full.refined[idx].any()
    sub_run = ChainRun(partition=p, states=run.states[idx],
                       innovations=run.innovations[idx], seed=run.seed,
                       flagged=run.flagged[idx])
    sub = transform_chain(sine2_model, p, sub_run)
    monkeypatch.setattr(chain, "_PATHS_PER_SOLVE", 5)
    blocked = transform_chain(sine2_model, p, run)
    for name in ("states", "m_coeffs", "sigma_coeffs", "identity_residuals",
                 "reconstruction_residuals", "refined"):
        assert np.array_equal(getattr(sub, name), getattr(full, name)[idx]), name
        assert np.array_equal(getattr(blocked, name), getattr(full, name)), name


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [1, 7, 300])
def test_solve_small_matches_lapack(d, batch):
    rng = np.random.default_rng(10 * d + batch)
    A = np.eye(d) + 0.3 * rng.standard_normal((batch, d, d))
    b = rng.standard_normal((batch, d))
    B = rng.standard_normal((batch, d, 3))
    assert np.linalg.cond(A).max() < 1e3
    assert_allclose(solve_small(A, b),
                    np.linalg.solve(A, b[..., None])[..., 0], rtol=0, atol=1e-13)
    assert_allclose(solve_small(A, B), np.linalg.solve(A, B), rtol=0, atol=1e-13)
    # No batch axis: one system, as inverse_jacobian_product uses it.
    assert_allclose(solve_small(A[0], B[0]), np.linalg.solve(A[0], B[0]),
                    rtol=0, atol=1e-13)
    if d <= 2:
        # One determinant per system serves every column, with the
        # bits of each column's own vector solve.
        for AA, BB in ((A, B), (A[0], B[0])):
            cols = np.stack([solve_small(AA, BB[..., i]) for i in range(3)], -1)
            assert np.array_equal(solve_small(AA, BB), cols)


def test_singular_layer_raises_inversion_error():
    # I + h F_x vanishes identically, although the declared m_f passes
    # the contraction guard: no layer Newton can converge, and the
    # closed-form solve gives inf instead of raising.
    p = make_partition(4, "uniform", T=1.0)
    h = p.steps[0]
    drift = DriftSpec(f=lambda t, x: -x / h,
                      jac=lambda t, x: np.full(x.shape + (1,), -1.0 / h),
                      hess=lambda t, x: np.zeros(x.shape + (1, 1)),
                      m_f=0.1, dim=1)
    with pytest.raises(InversionError) as exc:
        invert_broken_line(drift, p, 2, np.array([0.3]))
    assert not np.isfinite(exc.value.residual)
