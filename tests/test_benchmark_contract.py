"""The benchmark's tracer must install against the current library.

perfbench/tracing.py wraps module attributes by name; a rename or
removal under src/ would otherwise surface only when the traced
benchmark runs.
"""

import importlib.util
from pathlib import Path

from detrend_sde import builtin_model, cli, make_transform
from detrend_sde.sampling import sample_time_box

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in tracing._PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not orig
                   for owner, attr, orig in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)


def test_tracer_sees_the_scan_as_one_batched_jet_solve():
    # The tracer counts scan points only through
    # TransformedCoefficients.evaluate_batch called inside the scan.
    tracing = _load_tracing()
    tc = make_transform(builtin_model("sine", alpha=0.8, beta=1.3, dim=2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        cli.boundedness_scan(tc, n_samples=32, seed=0)
    finally:
        tracer.active = False
        tracer.uninstall()
    counts = tracer.totals()[3]
    assert counts["diagnostics.scan_points"] == 36  # 32 + 2 x 2 time ends
    assert counts["flow.jet_calls"] == 1


def test_tracer_sees_one_call_per_derivative():
    # check_assumptions evaluates jac and hess once each, on every
    # sample, with one time per sample.
    tracing = _load_tracing()
    model = builtin_model("sine", alpha=0.8, beta=1.3, dim=2)
    ts, _ = sample_time_box((0.0, model.horizon), model.x0 - 2.0,
                            model.x0 + 2.0, 256, 0, include_ends=True)
    tracer = tracing.Tracer()
    tracer.install(drifts=[model.drift])
    try:
        tracer.active = True
        report = cli.check_assumptions(model)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert report.passed
    counts = tracer.totals()[3]
    assert counts["models.drift_calls"] == 2
    assert counts["models.drift_rows"] == 2 * ts.size
