"""The benchmark's tracer must install against the current library.

perfbench/tracing.py wraps module attributes by name; a rename or
removal under src/ would otherwise surface only when the traced
benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
