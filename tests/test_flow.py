"""Phase flow, variational jets, inverse maps, and the volume identity."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from detrend_sde import (FlowIntegrationError, SingularJacobianError,
                         advance_flow, advance_flow_many, builtin_model,
                         drift_from_function, flow, flow_jet, flow_jet_many,
                         flow_time_derivatives, inverse_flow,
                         inverse_flow_many, liouville_determinant, rk)
from detrend_sde.sampling import sample_box, sample_time_box
from tests._oracles import (c_tensor, jet_rhs, rk4, sine_fields, swap_fields,
                            unpack_jet)
from tests.conftest import (FROZEN, SINE2_T, SINE2_X, SWAP2_T, SWAP2_X,
                            make_swap_drift, quadratic_drift)

JET_RTOL = 1e-9
JET_ATOL = 1e-11
ROUNDTRIP_TOL = 1e-7
LIOUVILLE_RTOL = 1e-7
FD_STEP = 1e-5
FD_RTOL = 1e-4


def test_zero_drift_flow_is_identity():
    drift = builtin_model("zero_drift", dim=3).drift
    x = np.array([[0.2, -1.0, 4.0]])
    assert np.array_equal(advance_flow_many(drift, 0.0, 0.8, x), x)
    jet = flow_jet(drift, 0.0, 0.8, x[0])
    assert np.array_equal(jet.g_star, np.eye(3))
    assert np.array_equal(jet.g_star_inv, np.eye(3))
    assert np.all(jet.c == 0.0)
    assert jet.det_g_star == 1.0


def test_linear_flow_matches_expm():
    b = np.array([[0.3, -0.5, 0.0], [0.2, 0.1, -0.4], [0.0, 0.3, 0.2]])
    drift = builtin_model("linear", b=b.tolist()).drift
    x = np.array([0.7, -1.1, 0.4])
    t = 0.9
    phi = expm(t * b)
    jet = flow_jet(drift, 0.0, t, x)
    assert_allclose(jet.g, phi @ x, rtol=1e-10, atol=1e-12)
    assert_allclose(jet.g_star, phi, rtol=1e-10, atol=1e-12)
    assert_allclose(jet.g_star_inv, expm(-t * b), rtol=1e-10, atol=1e-12)
    assert_allclose(jet.det_g_star, np.exp(t * np.trace(b)), rtol=1e-10)
    # Linear flows carry no curvature.
    assert np.abs(jet.c).max() <= 1e-12


def test_sine2_jet_frozen_values():
    drift = builtin_model("sine", alpha=0.8, beta=1.3, dim=2).drift
    jet = flow_jet(drift, 0.0, SINE2_T, SINE2_X)
    assert_allclose(jet.g, FROZEN["sine2_y"], rtol=JET_RTOL)
    assert_allclose(jet.g_star, FROZEN["sine2_g_star"], rtol=JET_RTOL, atol=JET_ATOL)
    assert_allclose(jet.g_star_inv, FROZEN["sine2_g_star_inv"], rtol=JET_RTOL,
                    atol=JET_ATOL)
    assert_allclose(jet.c, FROZEN["sine2_c"], rtol=JET_RTOL, atol=JET_ATOL)
    assert_allclose(jet.det_g_star, FROZEN["sine2_det"], rtol=JET_RTOL)


def test_swap2_jet_frozen_values():
    drift = make_swap_drift()
    jet = flow_jet(drift, 0.0, SWAP2_T, SWAP2_X)
    assert_allclose(jet.g, FROZEN["swap2_y"], rtol=JET_RTOL)
    assert_allclose(jet.g_star, FROZEN["swap2_g_star"], rtol=JET_RTOL)
    assert_allclose(jet.c, FROZEN["swap2_c"], rtol=1e-8, atol=1e-10)
    # Zero-diagonal Jacobian: volume is exactly conserved.
    assert_allclose(jet.det_g_star, 1.0, rtol=1e-10)


def test_flow_jet_many_matches_single(sine2_model):
    drift = sine2_model.drift
    xs = sample_box(np.full(2, -1.5), np.full(2, 1.5), 7, seed=3)
    batch = flow_jet_many(drift, 0.0, 0.6, xs)
    # Batch error control couples the step sequence across points, so
    # agreement is at integration accuracy rather than bitwise.
    for i, x in enumerate(xs):
        jet = flow_jet(drift, 0.0, 0.6, x)
        assert_allclose(batch["g"][i], jet.g, rtol=1e-9, atol=1e-12)
        assert_allclose(batch["g_star"][i], jet.g_star, rtol=1e-9, atol=1e-12)
        assert_allclose(batch["c"][i], jet.c, rtol=1e-8, atol=1e-11)


def test_inverse_then_forward_roundtrip(sine2_model):
    drift = sine2_model.drift
    ts, ys = sample_time_box((0.02, 1.0), np.full(2, -1.5), np.full(2, 1.5),
                             30, seed=5)
    worst = 0.0
    for t, y in zip(ts, ys):
        x = inverse_flow(drift, float(t), y)
        back = advance_flow(drift, 0.0, float(t), x)
        worst = max(worst, float(np.linalg.norm(back - y)
                                 / (1.0 + np.linalg.norm(y))))
    assert worst <= ROUNDTRIP_TOL


def test_semigroup_property(sine2_model):
    drift = sine2_model.drift
    x = np.array([0.3, -0.6])
    for t_mid in (0.2, 0.5, 0.77):
        one = advance_flow(drift, 0.0, 1.0, x)
        two = advance_flow(drift, t_mid, 1.0, advance_flow(drift, 0.0, t_mid, x))
        assert_allclose(two, one, rtol=1e-9, atol=1e-11)


def test_jacobian_inverse_consistency(sine2_model):
    jet = flow_jet(sine2_model.drift, 0.0, 0.9, np.array([0.5, 0.1]))
    assert_allclose(jet.g_star @ jet.g_star_inv, np.eye(2), atol=1e-10)


def test_first_order_jets_match_full(sine2_model):
    drift = sine2_model.drift
    xs = np.array([[0.4, -0.2]])
    full = flow_jet_many(drift, 0.0, 0.8, xs, order=2)
    first = flow_jet_many(drift, 0.0, 0.8, xs, order=1)
    assert_allclose(first["g_star"], full["g_star"], rtol=1e-11)
    assert "c" not in first


def test_c_tensor_symmetry(swap_drift):
    xs = sample_box(np.full(2, -1.0), np.full(2, 1.0), 10, seed=8)
    c = flow_jet_many(swap_drift, 0.0, 0.7, xs)["c"]
    assert_allclose(c, c.swapaxes(-1, -2), atol=1e-12)


def test_quadratic_flow_closed_form():
    drift = quadratic_drift()
    t, x = 0.3, 0.4
    jet = flow_jet(drift, 0.0, t, np.array([x]))
    u = 1.0 - t * x
    assert_allclose(jet.g, [x / u], rtol=1e-10)
    assert_allclose(jet.g_star, [[1.0 / u ** 2]], rtol=1e-10)
    # Inverse-map curvature for F = x^2 collapses to 2 t (1 - t x).
    assert_allclose(jet.c, [[[2.0 * t * u]]], rtol=1e-9)


def test_time_derivatives_match_fd(sine2_model):
    drift = sine2_model.drift
    ts, xs = sample_time_box((0.1, 1.0), np.full(2, -1.0), np.full(2, 1.0),
                             15, seed=6)
    for t, x in zip(ts, xs):
        t = float(t)
        d_fwd, d_inv = flow_time_derivatives(drift, 0.0, t, x)
        y = advance_flow(drift, 0.0, t, x)
        fd_inv = (inverse_flow(drift, t + FD_STEP, y)
                  - inverse_flow(drift, t - FD_STEP, y)) / (2 * FD_STEP)
        assert np.linalg.norm(fd_inv - d_inv) <= FD_RTOL * max(
            np.linalg.norm(d_inv), 1e-12)
        # Forward derivative in t0 of g(t; t0, x) at fixed x.
        fd_fwd = (advance_flow(drift, FD_STEP, t, x)
                  - advance_flow(drift, -FD_STEP, t, x)) / (2 * FD_STEP)
        assert np.linalg.norm(fd_fwd - d_fwd) <= FD_RTOL * max(
            np.linalg.norm(d_fwd), 1e-12)


def test_time_derivatives_from_a_nonzero_start_match_fd(sine2_model):
    # t0 != 0: d_t_ginv needs the inverse flow to time 0 and a second jet.
    drift = sine2_model.drift
    t0, t = 0.3, 0.9
    for x in sample_box(np.full(2, -1.0), np.full(2, 1.0), 4, seed=8):
        d_fwd, d_inv = flow_time_derivatives(drift, t0, t, x)
        fd_fwd = (advance_flow(drift, t0 + FD_STEP, t, x)
                  - advance_flow(drift, t0 - FD_STEP, t, x)) / (2 * FD_STEP)
        y = advance_flow(drift, t0, t, x)
        fd_inv = (inverse_flow(drift, t + FD_STEP, y)
                  - inverse_flow(drift, t - FD_STEP, y)) / (2 * FD_STEP)
        for d, fd in ((d_fwd, fd_fwd), (d_inv, fd_inv)):
            assert np.linalg.norm(fd - d) <= FD_RTOL * max(np.linalg.norm(d), 1e-12)


def test_liouville_two_routes_agree(sine2_model):
    drift = sine2_model.drift
    ts, xs = sample_time_box((0.05, 1.0), np.full(2, -1.5), np.full(2, 1.5),
                             40, seed=7)
    for t, x in zip(ts, xs):
        det_direct, det_trace = liouville_determinant(drift, 0.0, float(t), x)
        assert abs(det_direct - det_trace) <= LIOUVILLE_RTOL * abs(det_trace)


def test_strong_contraction_flags_singular_jacobian():
    drift = builtin_model("linear", b=-5.0).drift
    with pytest.raises(SingularJacobianError):
        flow_jet(drift, 0.0, 6.0, np.array([1.0]))


def test_finite_time_blowup_reports_progress():
    drift = quadratic_drift()
    with pytest.raises(FlowIntegrationError) as exc:
        advance_flow(drift, 0.0, 1.0, np.array([2.0]))
    # g = x/(1 - t x) explodes at t = 0.5.
    assert 0.4 <= exc.value.t_reached <= 0.51


def test_fixed_steps_agree_with_adaptive(sine2_model):
    drift = sine2_model.drift
    x = np.array([[0.4, -0.3]])
    a = advance_flow_many(drift, 0.0, 0.7, x)
    b = rk4(drift.f, 0.0, 0.7, x, 2000)
    assert_allclose(a, b, rtol=1e-8)


def test_backward_advance_inverts_forward(sine2_model):
    drift = sine2_model.drift
    x = np.array([0.2, 0.9])
    y = advance_flow(drift, 0.0, 0.8, x)
    assert_allclose(advance_flow(drift, 0.8, 0.0, y), x, rtol=1e-9)


def test_inverse_flow_many_batches(sine2_model):
    drift = sine2_model.drift
    ys = sample_box(np.full(2, -1.0), np.full(2, 1.0), 6, seed=11)
    batch = inverse_flow_many(drift, 0.75, ys)
    for i, y in enumerate(ys):
        assert_allclose(batch[i], inverse_flow(drift, 0.75, y),
                        rtol=1e-9, atol=1e-12)


FLOW_TOL = 1e-10
# Unsorted, with a duplicate and two rows ending at the start time.
PER_ROW_T = np.array([0.9, 0.0, 0.35, 0.9, 0.6, 0.0])


def test_advance_flow_many_per_row_end_times(sine2_model):
    drift = sine2_model.drift
    xs = sample_box(np.full(2, -1.5), np.full(2, 1.5), PER_ROW_T.size, seed=5)
    got = advance_flow_many(drift, 0.0, PER_ROW_T, xs, FLOW_TOL)
    for i, t in enumerate(PER_ROW_T):
        assert_allclose(got[i], advance_flow(drift, 0.0, t, xs[i], FLOW_TOL),
                        rtol=10 * FLOW_TOL, atol=10 * FLOW_TOL)


@pytest.mark.parametrize("order", [1, 2])
def test_flow_jet_many_per_row_end_times(sine2_model, order):
    drift = sine2_model.drift
    xs = sample_box(np.full(2, -1.5), np.full(2, 1.5), PER_ROW_T.size, seed=6)
    got = flow_jet_many(drift, 0.0, PER_ROW_T, xs, FLOW_TOL, order=order)
    for i, t in enumerate(PER_ROW_T):
        one = flow_jet_many(drift, 0.0, t, xs[i], FLOW_TOL, order=order)
        for key, value in one.items():
            assert_allclose(got[key][i], value[0], rtol=10 * FLOW_TOL,
                            atol=10 * FLOW_TOL, err_msg=key)


def test_equal_end_times_are_the_scalar_bits(sine2_model):
    drift = sine2_model.drift
    xs = sample_box(np.full(2, -1.5), np.full(2, 1.5), 5, seed=7)
    scalar = flow_jet_many(drift, 0.0, 0.8, xs)
    per_row = flow_jet_many(drift, 0.0, np.full(5, 0.8), xs)
    for key in scalar:
        assert np.array_equal(per_row[key], scalar[key]), key


@pytest.mark.parametrize("t", [0.0, 0.6])
def test_zero_span_jets_are_exact_identity(sine2_model, t):
    xs = sample_box(np.full(2, -1.5), np.full(2, 1.5), 4, seed=8)
    jets = flow_jet_many(sine2_model.drift, t, t, xs)
    eye = np.broadcast_to(np.eye(2), (4, 2, 2))
    assert np.array_equal(jets["g"], xs)
    assert np.array_equal(jets["g_star"], eye)
    assert np.array_equal(jets["g_star_inv"], eye)
    assert np.array_equal(jets["det_g_star"], np.ones(4))
    assert np.array_equal(jets["trace_integral"], np.zeros(4))
    assert np.all(jets["c"] == 0.0)


def test_per_row_end_times_on_both_sides_rejected(sine2_model):
    xs = np.zeros((2, 2))
    with pytest.raises(ValueError):
        flow_jet_many(sine2_model.drift, 0.5, np.array([0.2, 0.8]), xs)
    with pytest.raises(ValueError):
        advance_flow_many(sine2_model.drift, 0.0, np.array([0.2, np.nan]), xs)


def test_state_of_the_wrong_length_rejected(sine2_model):
    for advance in (advance_flow, advance_flow_many):
        with pytest.raises(ValueError):
            advance(sine2_model.drift, 0.0, 0.5, np.zeros(3))


def _quadratic_fields(d, seed):
    """F(x) = a + B x + Q(x, x) / 2 with dense B and (j, k)-symmetric Q;
    the callables take one row or a batch."""
    rng = np.random.default_rng(seed)
    a, B = rng.normal(size=d), rng.normal(size=(d, d))
    Q = rng.normal(size=(d, d, d))
    Q = 0.5 * (Q + Q.swapaxes(1, 2))

    def f(t, x):
        return a + x @ B.T + 0.5 * np.einsum("ijk,...j,...k->...i", Q, x, x)

    def jac(t, x):
        return B + np.einsum("ijk,...k->...ij", Q, x)

    def hess(t, x):
        return np.broadcast_to(Q, np.shape(x)[:-1] + Q.shape)
    return f, jac, hess


def _rhs_case(kind, d):
    """A batched drift and the same field's one-row callables."""
    if kind == "sine":
        return builtin_model("sine", alpha=0.8, beta=1.3, dim=d).drift, \
            sine_fields(0.8, 1.3)
    if kind == "swap":
        return make_swap_drift(), swap_fields(0.6, 1.1)
    fields = _quadratic_fields(d, seed=d)
    # m_f is a bound the right-hand side never reads.
    return drift_from_function(fields[0], d, 1.0, *fields[1:]), fields


KERNEL_TOL = 1e-14


def _random_jet_state(d, rows, seed):
    """Augmented states [y, Z, M, W, s] with Z and M near the identity."""
    dd = d * d
    u = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                            (rows, d + 2 * dd + dd * d + 1))
    u[:, d:d + 2 * dd] = 0.3 * u[:, d:d + 2 * dd] + np.tile(np.eye(d).ravel(), 2)
    return u


def _assert_close_rows(got, want):
    assert np.all(np.abs(got - want) <= KERNEL_TOL * (1.0 + np.abs(want)))


# Diagonal (sine) and dense (swap, quadratic) J and H.
@pytest.mark.parametrize("kind, d", [("sine", 2), ("sine", 3), ("swap", 2),
                                     ("quadratic", 2), ("quadratic", 3)])
def test_order2_rhs_matches_oracle_per_row(kind, d):
    drift, fields = _rhs_case(kind, d)
    u = _random_jet_state(d, 9, seed=d)
    got = flow._rhs_jet(drift, d, 2)(0.4, u)
    oracle = jet_rhs(*fields, d)
    for row, out in zip(u, got):
        _assert_close_rows(out, oracle(0.4, row))


@pytest.mark.parametrize("d", [2, 3])
def test_c_contraction_matches_oracle(monkeypatch, d):
    u = _random_jet_state(d, 6, seed=10 + d)
    # Hand flow_jet_many a known end state in place of the solve.
    monkeypatch.setattr(rk, "integrate", lambda *args, **kwargs: u)
    drift = builtin_model("sine", dim=d).drift
    c = flow_jet_many(drift, 0.0, 0.5, u[:, :d])["c"]
    for row, got in zip(u, c):
        _, Z, M, W, _ = unpack_jet(row, d)
        _assert_close_rows(got, c_tensor(Z, M, W))


# Jets pinned bit for bit.  tests/frozen_jets.json was written with the
# einsum contractions that the d >= 2 right-hand side and c used before
# they became matmuls in einsum's product order.  On these fields every
# regrouped sum has at most one nonzero term, so the bits must not move;
# rewriting the file from a later kernel would pin nothing.
# Written with:  PYTHONPATH=src python3 -m tests.test_flow
FROZEN_JETS_PATH = Path(__file__).with_name("frozen_jets.json")
FROZEN_JET_MODELS = {
    "sine2": ("sine", {"alpha": 0.8, "beta": 1.3, "dim": 2}),
    "sine3": ("sine", {"alpha": 0.8, "beta": 1.3, "dim": 3}),
    "linear2": ("linear", {"b": [[0.3, -0.5], [0.2, 0.1]]}),
    "zero_drift2": ("zero_drift", {"dim": 2}),
}


def _frozen_case_jets(name):
    model, params = FROZEN_JET_MODELS[name]
    drift = builtin_model(model, **params).drift
    xs = sample_box(np.full(drift.dim, -1.5), np.full(drift.dim, 1.5), 3,
                    seed=12)
    return flow_jet_many(drift, 0.0, 0.7, xs)


@pytest.mark.parametrize("name", sorted(FROZEN_JET_MODELS))
def test_jets_equal_frozen_bits(name):
    frozen = json.loads(FROZEN_JETS_PATH.read_text())[name]
    jets = _frozen_case_jets(name)
    assert sorted(jets) == sorted(frozen)
    for key, value in jets.items():
        assert np.array_equal(value, np.array(frozen[key])), key


if __name__ == "__main__":
    FROZEN_JETS_PATH.write_text(json.dumps(
        {name: {key: value.tolist()
                for key, value in _frozen_case_jets(name).items()}
         for name in sorted(FROZEN_JET_MODELS)}, indent=1) + "\n")
