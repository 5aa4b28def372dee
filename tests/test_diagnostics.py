"""Boundedness scans, weak-error comparison, convergence tables."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detrend_sde import (ConvergenceTable, DriftSpec, ModelSpec,
                         boundedness_scan, builtin_model, make_partition,
                         make_transform, pushforward_discrepancy, rk,
                         simulate_chain, strong_order_estimate,
                         transform_chain, weak_error_compare)
from detrend_sde.sampling import sample_time_box

SCAN_SLACK = 1e-9


def test_scan_zero_drift_sups_are_exact():
    model = builtin_model("zero_drift", dim=2, m0=1.0, sigma0=1.0)
    tc = make_transform(model)
    scan = boundedness_scan(tc, n_samples=32, seed=0)
    assert scan.passed
    # m = (1, 1) has Euclidean norm sqrt(2); sigma = I has spectral norm 1.
    assert scan.sups["m_tilde_norm"].value == pytest.approx(np.sqrt(2), abs=1e-12)
    assert scan.sups["sigma_tilde_norm"].value == pytest.approx(1.0, abs=1e-12)
    assert scan.sups["g_star_norm"].value == pytest.approx(1.0, abs=1e-12)
    assert scan.sups["c_max"].value == pytest.approx(0.0, abs=1e-12)


def test_scan_linear_growth_saturates_gronwall():
    model = builtin_model("linear", b=1.0, horizon=1.0)
    tc = make_transform(model)
    scan = boundedness_scan(tc, n_samples=32, seed=1)
    assert scan.passed
    # sup ||g_star|| over t in [0, 1] is e for b = 1.
    assert scan.sups["g_star_norm"].value == pytest.approx(np.e, rel=1e-6)
    assert scan.sups["g_star_inv_norm"].value == pytest.approx(1.0, abs=1e-9)
    assert scan.checks["ellipticity_lower"].passed


def test_scan_fails_when_bound_understated():
    good = builtin_model("linear", b=1.0)
    lying = DriftSpec(f=good.drift.f, jac=good.drift.jac,
                      hess=good.drift.hess, m_f=0.1, dim=1,
                      name="understated")
    model = ModelSpec(drift=lying, bounded_drift=good.bounded_drift,
                      sigma=good.sigma, lambda_=good.lambda_, dim=1,
                      horizon=1.0, x0=good.x0, name="lying")
    scan = boundedness_scan(make_transform(model), n_samples=16, seed=0)
    assert not scan.passed
    assert not scan.checks["g_star_growth"].passed


def test_scan_bounds_m_where_m_tilde_evaluates_it():
    # m_tilde(t, y) uses m at g(t; 0, y).  With b = 1 the flow carries
    # the box [-1, 3] up to e * 3, onto the bump of m at 6.8, which the
    # box itself never reaches; the bound must come from the flowed points.
    base = builtin_model("linear", b=1.0)
    model = ModelSpec(drift=base.drift,
                      bounded_drift=lambda t, x: np.exp(-(x - 6.8) ** 2),
                      sigma=base.sigma, lambda_=base.lambda_, dim=1,
                      horizon=1.0, x0=base.x0, name="bump")
    scan = boundedness_scan(make_transform(model), n_samples=32, seed=0)
    entry = scan.checks["m_tilde_bound"]
    assert entry.passed and scan.passed
    assert entry.measured <= entry.bound
    assert entry.bound > 0.5


def test_scan_matches_a_per_point_loop():
    # The scan makes one batched flow solve; a loop of single-point
    # solves is the reference, equal to the flow tolerance.
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    tc = make_transform(model)
    scan = boundedness_scan(tc, n_samples=24, seed=4)
    ts, xs = sample_time_box((0.0, model.horizon), model.x0 - 2.0,
                             model.x0 + 2.0, 24, 4, include_ends=True)
    ref = {k: [] for k in scan.sups}
    for t, x in zip(ts, xs):
        m, s, jets = tc.evaluate_batch(float(t), x[None, :], return_jets=True)
        ref["m_tilde_norm"].append(np.linalg.norm(m[0]))
        ref["sigma_tilde_norm"].append(np.linalg.norm(s[0], 2))
        ref["g_star_norm"].append(np.linalg.norm(jets["g_star"][0], 2))
        ref["g_star_inv_norm"].append(np.linalg.norm(jets["g_star_inv"][0], 2))
        ref["c_max"].append(np.abs(jets["c"][0]).max())
        ref["det_max"].append(jets["det_g_star"][0])
    for key, values in ref.items():
        assert scan.sups[key].value == pytest.approx(max(values), rel=1e-9), key


def test_scan_passes_across_seeds_at_the_cli_config():
    # With lambda = 1 and constant sigma, ellipticity_lower compares
    # sigma_min(M)^2 with 1 / max sigma_max(Z)^2, equal in exact
    # arithmetic; it holds only while the co-integrated M stays Z^{-1}
    # to well inside the 1e-9 slack.  This is transform-sde's own scan.
    tc = make_transform(builtin_model("sine", alpha=0.8, beta=1.3, dim=2))
    failed = [seed for seed in range(100)
              if not boundedness_scan(tc, n_samples=32, seed=seed).passed]
    assert failed == []


def test_scan_at_the_cli_config_is_one_short_solve(monkeypatch):
    # The 36 sample times share one rescaled grid.  Cutting the grid at
    # every sample time instead took 397 right-hand-side calls.
    calls = []
    integrate = rk.integrate

    def counting(rhs, *args, **kwargs):
        def counted(t, y):
            calls.append(len(y))
            return rhs(t, y)
        return integrate(counted, *args, **kwargs)
    monkeypatch.setattr(rk, "integrate", counting)
    tc = make_transform(builtin_model("sine", alpha=0.8, beta=1.3, dim=2))
    assert boundedness_scan(tc, n_samples=32, seed=3).passed
    assert 0 < len(calls) <= 120
    assert set(calls) == {36}


def test_scan_rejects_transformed_chain():
    # The transform-chain job reports a chain run's per-step sups itself.
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    p = make_partition(32, "uniform", T=model.horizon)
    run = simulate_chain(model, p, 6, seed=0)
    tr = transform_chain(model, p, run)
    with pytest.raises(TypeError, match="TransformedCoefficients"):
        boundedness_scan(tr)


def test_scan_report_round_trips_through_json():
    model = builtin_model("sine")
    scan = boundedness_scan(make_transform(model), n_samples=8, seed=3)
    blob = json.dumps(scan.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["kind"] == "sde_transform"
    assert set(back["sups"]) == set(scan.sups)
    assert all("passed" in c for c in back["checks"].values())


def test_weak_error_independent_seeds_reasonable():
    model = builtin_model("linear", b=0.5, m0=0.3, sigma0=0.8)
    tc = make_transform(model)
    rep = weak_error_compare(model, tc, 64, 2000, seed=42,
                             test_functions=[("sq", lambda y: (y ** 2).sum(axis=1)),
                                             ("first", lambda y: y[:, 0])])
    for row in rep.rows:
        assert row.std_error > 0
        assert abs(row.z_score) < 5.0
    assert {r.name for r in rep.rows} == {"sq", "first"}


def test_convergence_table_recovers_slope():
    # Resolutions are step sizes: slope is d log(err) / d log(h).
    hs = [1.0 / n for n in (16, 32, 64, 128)]
    errs = [0.4 * h for h in hs]
    tab = ConvergenceTable.from_pairs(list(zip(hs, errs)))
    assert tab.slope == pytest.approx(1.0, abs=1e-12)
    assert tab.monotone_violations == 0
    assert not tab.degenerate


def test_convergence_table_degenerate_on_zero_error():
    tab = ConvergenceTable.from_pairs([(8, 0.0), (16, 0.0), (32, 0.0)])
    assert tab.degenerate
    assert tab.slope is None


def test_convergence_table_needs_three_rows():
    with pytest.raises(ValueError):
        ConvergenceTable.from_pairs([(8, 0.1), (16, 0.05)])


def test_strong_order_estimate_noiseless_euler():
    # sigma = 0: the discrepancy is pure scheme error, order ~ 1 in h.
    base = builtin_model("sine", alpha=0.9, beta=1.2)

    def no_noise(t, x):
        return np.zeros(x.shape[:-1] + (1, 1))
    model = ModelSpec(drift=base.drift, bounded_drift=base.bounded_drift,
                      sigma=no_noise, lambda_=base.lambda_, dim=1,
                      horizon=base.horizon, x0=base.x0, name="noiseless")
    tc = make_transform(model)
    tables = [pushforward_discrepancy(model, tc, n, 2, seed=0)
              for n in (16, 32, 64)]
    tab = strong_order_estimate(tables)
    assert 0.8 <= tab.slope <= 1.2


def test_zero_drift_discrepancy_degenerate():
    model = builtin_model("zero_drift", dim=1)
    tc = make_transform(model)
    tables = [pushforward_discrepancy(model, tc, n, 3, seed=1)
              for n in (8, 16, 32)]
    assert all(t.terminal_mean == 0.0 for t in tables)
    tab = strong_order_estimate(tables)
    assert tab.degenerate
