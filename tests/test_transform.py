"""Detrended SDE coefficients and path simulation."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from detrend_sde import (FlowIntegrationError, ModelSpec, advance_flow_many,
                         builtin_model, make_transform, map_back,
                         normal_block, pushforward_discrepancy,
                         simulate_original, simulate_transformed)
from tests.conftest import (FROZEN, SINE1_T, SINE1_X, SWAP2_T, SWAP2_X,
                            make_swap_drift, quadratic_drift)

LINEAR_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
FROZEN_RTOL = 1e-9


def test_linear_coefficients_are_mapped_exactly():
    b = np.array([[0.3, -0.5], [0.2, 0.1]])
    model = builtin_model("linear", b=b.tolist(), m0=0.8, sigma0=1.3)
    tc = make_transform(model)
    for t in (0.25, 0.7, 1.0):
        phi_inv = expm(-t * b)
        m_t, s_t = tc.evaluate_batch(t, np.array([[0.4, -0.9]]))
        assert np.abs(m_t[0] - phi_inv @ (0.8 * np.ones(2))).max() <= LINEAR_TOL
        assert np.abs(s_t[0] - phi_inv * 1.3).max() <= LINEAR_TOL


def test_quadratic_closed_form_fixes_correction_sign():
    # F = x^2 gives g = x/(1 - t x); every factor of the transformed
    # drift is available in closed form:
    #   sigma_t = (1 - t x)^2 sigma,
    #   m_t     = (1 - t x)^2 (m - t (1 - t x) sigma^2).
    # A "+" in front of the curvature term would flip the second factor
    # to (m + ...) and miss by ~0.3 here.
    drift = quadratic_drift()
    base = builtin_model("zero_drift", dim=1, m0=0.5, sigma0=1.0)
    model = ModelSpec(drift=drift, bounded_drift=base.bounded_drift,
                      sigma=base.sigma, lambda_=base.lambda_,
                      horizon=0.4, x0=np.array([0.4]), name="quadratic")
    tc = make_transform(model)
    t, x = 0.3, 0.4
    u = 1.0 - t * x
    m_t, s_t = tc.evaluate_batch(t, np.array([[x]]))
    assert_allclose(s_t[0, 0, 0], u ** 2, rtol=CLOSED_FORM_TOL)
    assert_allclose(m_t[0, 0], u ** 2 * (0.5 - t * u), rtol=CLOSED_FORM_TOL)


def test_single_point_failure_keeps_its_context():
    # g = x/(1 - t x) explodes at t = 1/2 for x = 2: the error raised
    # from a single-point coefficient call is the integrator's own,
    # with t_reached intact.
    base = builtin_model("zero_drift", dim=1)
    model = ModelSpec(drift=quadratic_drift(), bounded_drift=base.bounded_drift,
                      sigma=base.sigma, lambda_=base.lambda_,
                      horizon=1.0, x0=np.array([0.0]), name="quadratic")
    tc = make_transform(model)
    with pytest.raises(FlowIntegrationError) as exc:
        tc.evaluate_batch(1.0, np.array([[2.0]]))
    assert 0.4 <= exc.value.t_reached <= 0.51


def test_sine1_frozen_coefficients(sine1_model):
    tc = make_transform(sine1_model)
    m_t, s_t = tc.evaluate_batch(SINE1_T, SINE1_X[None, :])
    assert_allclose(m_t[0], FROZEN["sine1_m_tilde"], rtol=FROZEN_RTOL)
    assert_allclose(s_t[0], FROZEN["sine1_sigma_tilde"], rtol=FROZEN_RTOL)


def test_swap2_frozen_coefficients():
    drift = make_swap_drift()
    base = builtin_model("zero_drift", dim=2)

    def m_fn(t, y):
        return np.broadcast_to(np.array([0.3, -0.1]), y.shape).copy()

    def s_fn(t, y):
        s = np.array([[0.9, 0.2], [0.0, 1.1]])
        return np.broadcast_to(s, y.shape[:-1] + (2, 2)).copy()
    model = ModelSpec(drift=drift, bounded_drift=m_fn, sigma=s_fn,
                      lambda_=2.0, horizon=1.0,
                      x0=np.zeros(2), name="swap")
    tc = make_transform(model)
    m_t, s_t = tc.evaluate_batch(SWAP2_T, SWAP2_X[None, :])
    assert_allclose(m_t[0], FROZEN["swap2_m_tilde"], rtol=1e-8)
    assert_allclose(s_t[0], FROZEN["swap2_sigma_tilde"], rtol=1e-8)


def test_zero_drift_transform_is_bitwise_identity():
    model = builtin_model("zero_drift", dim=2, m0=0.9, sigma0=1.1)
    tc = make_transform(model)
    orig = simulate_original(model, 64, 12, seed=3)
    trans = simulate_transformed(tc, 64, 12, seed=3)
    assert np.array_equal(orig.paths, trans.paths)
    mapped = map_back(tc, trans)
    assert np.array_equal(mapped.paths, trans.paths)
    assert mapped.scheme == "mapped_back"


def test_shared_seed_reproducibility(sine1_model):
    tc = make_transform(sine1_model)
    a = simulate_transformed(tc, 32, 5, seed=7)
    b = simulate_transformed(tc, 32, 5, seed=7)
    c = simulate_transformed(tc, 32, 5, seed=8)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


def test_prefix_stability_in_path_count(sine1_model):
    tc = make_transform(sine1_model)
    big = simulate_transformed(tc, 16, 10, seed=1)
    small = simulate_transformed(tc, 16, 4, seed=1)
    # The innovation stream is per-(seed, path, step), so the first step
    # (identity jets, no integration) is bitwise stable under batch
    # growth; later steps agree to integration accuracy because batch
    # error control couples the step sequence.
    assert np.array_equal(big.paths[:4, :2], small.paths[:, :2])
    assert_allclose(big.paths[:4], small.paths, rtol=1e-8, atol=1e-10)


def test_map_back_undoes_the_coordinate_change(sine1_model):
    tc = make_transform(sine1_model)
    trans = simulate_transformed(tc, 32, 6, seed=2)
    mapped = map_back(tc, trans)
    # Re-invert the mapped states; must recover the transformed states
    # to flow accuracy.
    from detrend_sde import inverse_flow_many
    k = 20
    t = float(trans.times[k])
    back = inverse_flow_many(tc.source.drift, t, mapped.paths[:, k, :])
    assert_allclose(back, trans.paths[:, k, :], rtol=1e-8, atol=1e-10)


def test_pushforward_discrepancy_decreases(sine1_model):
    tc = make_transform(sine1_model)
    tables = [pushforward_discrepancy(tc, n, 40, seed=0)
              for n in (16, 32, 64)]
    means = [t.terminal_mean for t in tables]
    assert means[0] > means[1] > means[2]
    assert tables[0].n_flagged == 0
    assert tables[0].times.size == 17


def test_pushforward_matches_explicit_map_back(sine1_model):
    # pushforward_discrepancy reuses the g of the coefficient solves
    # (g_steps) in place of map_back; both are the flow to its tolerance.
    tc = make_transform(sine1_model)
    tab = pushforward_discrepancy(tc, 24, 7, seed=4)
    orig = simulate_original(sine1_model, 24, 7, seed=4)
    trans = simulate_transformed(tc, 24, 7, seed=4)
    mapped = map_back(tc, trans)
    assert orig.g_steps is None and mapped.g_steps is None
    # Reference: one flow solve per grid column.
    explicit = np.stack([advance_flow_many(sine1_model.drift, 0.0, float(t),
                                           trans.paths[:, k, :])
                         for k, t in enumerate(trans.times)], axis=1)
    assert_allclose(mapped.paths, explicit, rtol=1e-7, atol=1e-12)
    assert np.array_equal(mapped.paths[:, -1], explicit[:, -1])
    diff = np.linalg.norm(orig.paths - explicit, axis=2)
    assert_allclose(tab.mean, diff.mean(axis=0), rtol=1e-7, atol=1e-12)
    assert_allclose(tab.max, diff.max(axis=0), rtol=1e-7, atol=1e-12)
    assert tab.mean[-1] == diff.mean(axis=0)[-1]


def test_map_back_needs_transformed_ensemble(sine1_model):
    tc = make_transform(sine1_model)
    with pytest.raises(ValueError, match="g_steps"):
        map_back(tc, simulate_original(sine1_model, 8, 3, seed=0))


def test_overflowing_paths_are_flagged():
    drift = quadratic_drift()
    base = builtin_model("zero_drift", dim=1, m0=0.0, sigma0=1.0)
    model = ModelSpec(drift=drift, bounded_drift=base.bounded_drift,
                      sigma=base.sigma, lambda_=base.lambda_,
                      horizon=1.0, x0=np.array([3.0]), name="blowup")
    orig = simulate_original(model, 64, 8, seed=0)
    assert orig.flagged.all()
    assert np.all(np.isfinite(orig.paths[:, 0, :]))


def test_transformed_ensemble_metadata(sine1_model):
    tc = make_transform(sine1_model)
    ens = simulate_transformed(tc, 8, 3, seed=5)
    assert ens.scheme == "transformed"
    assert ens.times[0] == 0.0 and ens.times[-1] == sine1_model.horizon


def test_coefficient_blocks_fix_the_bits(sine1_model, monkeypatch):
    # Shrink the block so ten paths span three blocks: the first block's
    # rows must be those of a run that holds only that block.
    import detrend_sde.transform as transform_mod
    monkeypatch.setattr(transform_mod, "_COEFF_BLOCK", 4)
    tc = make_transform(sine1_model)
    big = simulate_transformed(tc, 8, 10, seed=3)
    small = simulate_transformed(tc, 8, 4, seed=3)
    assert np.array_equal(big.paths[:4], small.paths)
    assert np.array_equal(big.g_steps[:4], small.g_steps)


def test_warm_started_simulation_matches_cold_coefficients(sine2_model):
    # simulate_transformed starts each Euler step's jet solve from the
    # step the previous one would have taken; an explicit Euler loop over
    # cold evaluate_batch calls on the same innovations must agree to
    # the flow tolerance.
    n_steps, n_paths, seed = 16, 8, 5
    tc = make_transform(sine2_model)
    ens = simulate_transformed(tc, n_steps, n_paths, seed)
    times = ens.times
    y = np.broadcast_to(sine2_model.x0, (n_paths, 2)).copy()
    want = [y]
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        mu, sig = tc.evaluate_batch(times[k], y)
        xi = normal_block(seed, k, n_paths, 2)
        y = y + h * mu + np.sqrt(h) * np.einsum("bij,bj->bi", sig, xi)
        want.append(y)
    want = np.stack(want, axis=1)
    assert not ens.flagged.any()
    assert np.all(np.abs(ens.paths - want) <= 1e-9 * (1 + np.abs(want)))


def test_evaluate_batch_jets_roundtrip(sine1_model):
    tc = make_transform(sine1_model)
    ys = np.array([[0.1], [0.3]])
    m_t, s_t, jets = tc.evaluate_batch(0.4, ys, return_jets=True)
    assert_allclose(jets["g_star"] @ jets["g_star_inv"],
                    np.broadcast_to(np.eye(1), (2, 1, 1)), atol=1e-10)
    assert m_t.shape == (2, 1) and s_t.shape == (2, 1, 1)


def test_evaluate_batch_per_row_times_match_scalar_calls(sine2_model):
    seen = []

    def bounded(t, y):
        seen.append((t, len(y)))
        return sine2_model.bounded_drift(t, y)
    tc = make_transform(dataclasses.replace(sine2_model, bounded_drift=bounded))
    ts = np.array([0.8, 0.0, 0.3, 0.8, 0.55])
    ys = np.array([[0.1, -0.4], [0.9, 0.2], [-1.1, 0.5], [0.3, 0.3],
                   [0.6, -0.8]])
    m_t, s_t, jets = tc.evaluate_batch(ts, ys, return_jets=True)
    # One call on the whole batch, with one time per row.
    assert len(seen) == 1
    t_seen, rows = seen[0]
    assert rows == ts.size and np.array_equal(t_seen, ts[:, None])
    for i, t in enumerate(ts):
        m_i, s_i, jets_i = tc.evaluate_batch(t, ys[i:i + 1], return_jets=True)
        assert_allclose(m_t[i], m_i[0], rtol=1e-9, atol=1e-9)
        assert_allclose(s_t[i], s_i[0], rtol=1e-9, atol=1e-9)
        assert_allclose(jets["g"][i], jets_i["g"][0], rtol=1e-9, atol=1e-9)
