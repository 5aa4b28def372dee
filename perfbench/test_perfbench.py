"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the benchmark for one second per workload (one job each), so
they take about a minute; they do not measure anything.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_regenerates_identical_inputs(tmp_path, name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(7, str(tmp_path)), cls(7, str(tmp_path)), cls(8, str(tmp_path))
    first = [repr(a.inputs(i)) for i in range(40)]
    assert first == [repr(b.inputs(i)) for i in range(40)]
    assert first != [repr(other.inputs(i)) for i in range(40)]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracing.LAYER_METRICS]


@pytest.mark.parametrize("name,trace", [(n, 0) for n in run.WORKLOAD_NAMES]
                         + [("sde-ensemble", 1), ("point-queries", 1)])
def test_short_run_prints_every_metric_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else \
        [m[:2] for m in tracing.LAYER_METRICS]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for metric, unit in expected:
        value = result["metrics"][metric]["value"]
        assert isinstance(value, (int, float))
        # Printed by name with its unit above the JSON line as well.
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in lines[:-1]), metric


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "point-queries", "--seed", "1",
                  "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
