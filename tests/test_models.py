"""Model declarations, derivative conventions, and assumption checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from detrend_sde import (AssumptionError, DriftSpec, ModelSpec,
                         builtin_model, check_assumptions,
                         list_builtin_models)
from detrend_sde.sampling import sample_box, sample_time_box
from tests.conftest import make_swap_drift


def _check_samples(model):
    """The (t, x) samples check_assumptions evaluates: x0 +- 2 over
    [0, horizon], 256 points, seed 0, time ends pinned."""
    return sample_time_box((0.0, model.horizon), model.x0 - 2.0,
                           model.x0 + 2.0, 256, 0, include_ends=True)


def test_builtin_listing():
    names = [n for n, _ in list_builtin_models()]
    assert names == sorted(names)
    assert {"zero_drift", "linear", "sine", "scalar_logistic_bounded"} <= set(names)


def test_unknown_builtin_mentions_choices():
    with pytest.raises(ValueError, match="sine"):
        builtin_model("not_a_model")


def test_zero_drift_fields():
    m = builtin_model("zero_drift", dim=3, m0=0.7, sigma0=2.0)
    x = np.zeros((4, 3))
    assert np.all(m.drift.f(0.3, x) == 0.0)
    assert np.all(m.drift.jac(0.3, x) == 0.0)
    assert np.all(m.drift.hess(0.3, x) == 0.0)
    assert m.drift.m_f == 0.0
    assert_allclose(m.bounded_drift(0.0, x), 0.7 * np.ones((4, 3)))
    # Lambda must cover both sigma^2 and its inverse.
    assert m.lambda_ >= 4.0


def test_linear_matrix_drift():
    b = np.array([[0.3, -0.5], [0.2, 0.1]])
    m = builtin_model("linear", b=b.tolist())
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert_allclose(m.drift.f(0.0, x), x @ b.T, rtol=1e-15)
    assert_allclose(m.drift.jac(0.0, x)[0], b, rtol=1e-15)
    assert np.all(m.drift.hess(0.0, x) == 0.0)
    assert m.drift.m_f >= np.linalg.svd(b, compute_uv=False)[0] - 1e-12


def test_sine_bounds():
    m = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    xs = sample_box(np.full(2, -3.0), np.full(2, 3.0), 100, seed=0)
    f = m.drift.f(0.0, xs)
    assert np.all(np.abs(f) <= 0.8 + 1e-12)
    assert m.drift.m_f == pytest.approx(max(0.8 * 1.3, 0.8 * 1.3 ** 2))


def test_logistic_derivative_bound():
    m = builtin_model("scalar_logistic_bounded", a=2.0)
    assert m.dim == 1
    assert m.drift.m_f == pytest.approx(0.5)
    xs = np.linspace(-6, 6, 201).reshape(-1, 1)
    slopes = m.drift.jac(0.0, xs)[:, 0, 0]
    assert slopes.max() <= 0.5 + 1e-12


@pytest.mark.parametrize("name", [n for n, _ in list_builtin_models()])
def test_builtins_pass_assumption_check(name):
    model = builtin_model(name)
    report = check_assumptions(model)
    assert report.passed, report.entries
    assert report.model_name == model.name
    assert set(report.entries) == {"a1", "a2", "a3"}


def test_declared_bound_too_small_fails():
    # Same sine field, but m_f understates the true derivative sup.
    good = builtin_model("sine", alpha=1.0, beta=2.0)
    bad_drift = DriftSpec(f=good.drift.f, jac=good.drift.jac,
                          hess=good.drift.hess, m_f=0.5, dim=1)
    bad = ModelSpec(drift=bad_drift, bounded_drift=good.bounded_drift,
                    sigma=good.sigma, lambda_=good.lambda_, dim=1,
                    horizon=good.horizon, x0=good.x0, name="bad")
    report = check_assumptions(bad)
    assert not report.passed
    assert not report.entries["a2"].passed
    assert report.entries["a2"].measured["jac_norm_sup"] > 0.5


def test_degenerate_diffusion_fails():
    base = builtin_model("zero_drift", dim=2)

    def sigma(t, x):
        s = np.zeros(x.shape[:-1] + (2, 2))
        s[..., 0, 0] = 1.0
        return s
    bad = ModelSpec(drift=base.drift, bounded_drift=base.bounded_drift,
                    sigma=sigma, lambda_=base.lambda_, dim=2,
                    horizon=1.0, x0=base.x0, name="degenerate")
    report = check_assumptions(bad)
    assert not report.entries["a1"].passed
    assert report.entries["a1"].measured["eig_min"] < 1e-12


def test_nonfinite_drift_reports_location():
    def nan_past(x):
        return np.where(x[..., 0] > 1.5, np.nan, 0.0)

    def f(t, x):
        out = np.zeros_like(x)
        out[..., 0] = nan_past(x)
        return out

    def jac(t, x):
        return nan_past(x)[..., None, None]

    def hess(t, x):
        return nan_past(x)[..., None, None, None]
    drift = DriftSpec(f=f, jac=jac, hess=hess, m_f=1.0, dim=1)
    base = builtin_model("zero_drift", dim=1)
    m = ModelSpec(drift=drift, bounded_drift=base.bounded_drift,
                  sigma=base.sigma, lambda_=base.lambda_, dim=1,
                  horizon=1.0, x0=np.zeros(1), name="nanny")
    report = check_assumptions(m)
    assert not report.passed
    assert "non-finite" in report.entries["a2"].detail


def _reference_measured(model):
    """The per-sample loop that check_assumptions batches: one
    evaluation of every callable per (t, x) sample."""
    ts, xs = _check_samples(model)
    d = model.dim
    eig_min, eig_max = np.inf, -np.inf
    jac_sup = hess_sup = asym_max = m_sup = 0.0
    for t, x in zip(ts, xs):
        xb = x[None, :]
        sig = np.asarray(model.sigma(t, xb), dtype=float).reshape(d, d)
        jac = np.asarray(model.drift.jac(t, xb), dtype=float).reshape(d, d)
        hess = np.asarray(model.drift.hess(t, xb), dtype=float).reshape(d, d, d)
        mv = np.asarray(model.bounded_drift(t, xb), dtype=float).reshape(d)
        w = np.linalg.eigvalsh(sig @ sig.T)
        eig_min, eig_max = min(eig_min, float(w[0])), max(eig_max, float(w[-1]))
        jac_sup = max(jac_sup, float(np.linalg.svd(jac, compute_uv=False)[0]))
        hess_sup = max(hess_sup, float(np.linalg.svd(hess, compute_uv=False)[:, 0].max()))
        asym_max = max(asym_max, float(np.abs(hess - hess.swapaxes(1, 2)).max()))
        m_sup = max(m_sup, float(np.linalg.norm(mv)))
    drift = model.drift
    return {
        "a1": {"declared_lambda": model.lambda_, "eig_min": eig_min, "eig_max": eig_max},
        "a2": {"m_f": drift.m_f, "jac_norm_sup": jac_sup, "hess_norm_sup": hess_sup,
               "hess_asymmetry_max": asym_max},
        "a3": {"m_norm_sup": m_sup},
    }


def _swap_model():
    # Coupled, time-dependent drift, a state-dependent perturbation and
    # a non-diagonal diffusion, so no measured value is exact.
    base = builtin_model("zero_drift", dim=2, sigma0=[[1.0, 0.3], [0.2, 0.9]])
    return ModelSpec(drift=make_swap_drift(),
                     bounded_drift=lambda t, x: (0.5 + 0.1 * t) * np.cos(x),
                     sigma=base.sigma, lambda_=base.lambda_, dim=2,
                     horizon=1.0, x0=np.array([0.3, -0.1]), name="swap")


ASSUMPTION_MODELS = {
    **{name: (lambda name=name: builtin_model(name))
       for name, _ in list_builtin_models()},
    "sine_d2": lambda: builtin_model("sine", alpha=0.8, beta=1.3, dim=2),
    "linear_callable_b": lambda: builtin_model(
        "linear", b=lambda t: [[0.4 * t, 0.2], [-0.1, 0.3 - t]], dim=2),
    "swap": _swap_model,
}


@pytest.mark.parametrize("key", sorted(ASSUMPTION_MODELS))
def test_batched_check_matches_per_sample_loop(key):
    model = ASSUMPTION_MODELS[key]()
    entries = check_assumptions(model).entries
    assert {k: e.measured for k, e in entries.items()} \
        == _reference_measured(model)
    assert all(e.passed for e in entries.values())


def test_check_calls_each_callable_once_with_row_times():
    model = _swap_model()
    calls = {}

    def recording(name, fn):
        def call(t, x):
            calls.setdefault(name, []).append(t)
            return fn(t, x)
        return call
    model.sigma = recording("sigma", model.sigma)
    model.bounded_drift = recording("m", model.bounded_drift)
    model.drift.jac = recording("jac", model.drift.jac)
    model.drift.hess = recording("hess", model.drift.hess)
    check_assumptions(model)
    ts, _ = _check_samples(model)
    assert np.unique(ts).size < ts.size  # the time ends repeat
    assert set(calls) == {"sigma", "m", "jac", "hess"}
    for seen in calls.values():
        # One call on every sample, with one time per row.
        assert len(seen) == 1
        assert seen[0].shape == (ts.size, 1)
        assert np.array_equal(seen[0][:, 0], ts)


def test_nonfinite_entries_report_first_sample_in_sample_order():
    base = builtin_model("zero_drift", dim=2)

    def sigma(t, x):
        s = base.sigma(t, x)
        s[x[:, 0] > 1.0] = np.nan
        return s

    def m(t, x):
        out = base.bounded_drift(t, x)
        out[x[:, 1] > 1.0] = np.inf
        return out
    model = ModelSpec(drift=base.drift, bounded_drift=m, sigma=sigma,
                      lambda_=base.lambda_, dim=2, horizon=1.0,
                      x0=base.x0, name="two_faults")
    ts, xs = _check_samples(model)
    bad_sigma = xs[:, 0] > 1.0
    bad_m = xs[:, 1] > 1.0
    report = check_assumptions(model)
    i_sigma, i_m = np.argmax(bad_sigma), np.argmax(bad_m)
    assert i_sigma != i_m
    # The first offender in sample order is not the earliest in time,
    # so a report in time order would name another point.
    assert ts[bad_sigma].min() < ts[i_sigma] and ts[bad_m].min() < ts[i_m]
    assert report.entries["a1"].detail == \
        f"non-finite diffusion at t={float(ts[i_sigma])}, x={xs[i_sigma].tolist()}"
    assert report.entries["a3"].detail == \
        f"non-finite perturbation at t={float(ts[i_m])}, x={xs[i_m].tolist()}"
    assert not report.entries["a1"].passed and not report.entries["a3"].passed
    assert report.entries["a2"].passed


def test_elliptic_sigma_required():
    with pytest.raises(AssumptionError):
        builtin_model("sine", sigma0=0.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_linear_mf_dominates_samples(entries):
    b = np.array(entries).reshape(2, 2)
    m = builtin_model("linear", b=b.tolist())
    xs = sample_box(np.full(2, -5.0), np.full(2, 5.0), 50, seed=0)
    norms = np.linalg.svd(m.drift.jac(0.0, xs), compute_uv=False)[..., 0]
    assert np.all(norms <= m.drift.m_f + 1e-9)
