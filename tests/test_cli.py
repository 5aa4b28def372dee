"""Exit codes, config handling, and artifact determinism of the CLI."""

import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from detrend_sde import __version__, cli
from detrend_sde.cli import (EXIT_ASSUMPTION, EXIT_CONFIG, EXIT_INVERSION,
                             EXIT_NUMERICAL, EXIT_OK, ExperimentConfig,
                             load_config, main)

FAST_SDE = ["--set", "simulation.n_paths=10", "--set", "simulation.n_steps=32"]
FAST_CHAIN = ["--set", "simulation.n_paths=6", "--set", "partition.n=32"]


def test_config_defaults_round_trip():
    cfg = ExperimentConfig.from_dict({})
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert cfg.hash() == again.hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(Exception, match="unknown keys"):
        ExperimentConfig.from_dict({"modle": {}})


def test_hash_ignores_output_location():
    a = ExperimentConfig.from_dict({"output": {"dir": "x"}})
    b = ExperimentConfig.from_dict({"output": {"dir": "y"}})
    assert a.hash() == b.hash()
    c = ExperimentConfig.from_dict({"simulation": {"seed": 1}})
    assert a.hash() != c.hash()


def test_set_overrides_nested_json_values():
    class Args:
        config = None
        set = ["model.name=linear", "model.params.b=[[0.1,0],[0,0.2]]",
               "simulation.n_steps=[8,16]"]
        seed = 5
        out = "somewhere"
    cfg = load_config(Args())
    assert cfg.model.name == "linear"
    assert cfg.model.params["b"] == [[0.1, 0], [0, 0.2]]
    assert cfg.simulation.n_steps == [8, 16]
    assert cfg.simulation.seed == 5
    assert cfg.output.dir == "somewhere"


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"name": "sine"},
                                "simulation": {"seed": 3}}))

    class Args:
        config = str(path)
        set = None
        seed = None
        out = None
    cfg = load_config(Args())
    assert cfg.model.name == "sine"
    assert cfg.simulation.seed == 3


def test_list_models(capsys):
    assert main(["list-models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sine" in out and "zero_drift" in out


def test_transform_sde_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["transform-sde", *FAST_SDE, "--out", str(out)])
    assert code == EXIT_OK
    for name in ("paths.csv", "discrepancy.csv", "scan.json", "summary.json"):
        assert (out / name).exists()
    first = (out / "paths.csv").read_text().splitlines()[0]
    assert first.startswith(f"# detrend-sde {__version__} config_sha256=")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["version"] == __version__
    assert summary["scan_passed"] is True
    assert len(summary["config_sha256"]) == 64


def test_csv_values_keep_their_round_trip_repr(tmp_path):
    def old_rule(v):
        # The formatting the writer must keep: floats by repr, the rest by str.
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)
    values = [-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, -np.inf, 0.1, 1 / 3]
    paths = np.array(values).reshape(1, -1, 1)
    times = np.arange(len(values), dtype=float)
    direct = [3, np.int64(7), *map(np.float64, values), "x"]
    cfg = ExperimentConfig.from_dict({})
    path = tmp_path / "rows.csv"
    cli._write_csv(path, cfg, ["h"],
                   [*cli._path_rows(times, paths, "scheme"), direct])
    lines = path.read_text().splitlines()[2:]
    want = [",".join(old_rule(v) for v in (0, k, times[k], paths[0, k, 0], "scheme"))
            for k in range(len(values))]
    want.append(",".join(old_rule(v) for v in direct))
    assert lines == want
    assert lines[0].split(",")[3] == "-0.0" and lines[3].split(",")[3] == "5e-324"


def test_transform_sde_bitwise_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["transform-sde", *FAST_SDE, "--out", str(a)])
    main(["transform-sde", *FAST_SDE, "--out", str(b)])
    for name in ("paths.csv", "discrepancy.csv", "scan.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_transform_sde_simulates_each_refinement_once(tmp_path, monkeypatch):
    from detrend_sde import transform
    calls = []

    def counting(simulate):
        def run(tc, n_steps, n_paths, seed):
            calls.append(n_steps)
            return simulate(tc, n_steps, n_paths, seed)
        return run
    monkeypatch.setattr(cli, "simulate_transformed",
                        counting(cli.simulate_transformed))
    monkeypatch.setattr(transform, "simulate_transformed",
                        counting(transform.simulate_transformed))
    code = main(["transform-sde", "--set", "simulation.n_paths=6",
                 "--set", "simulation.n_steps=[2,4,8]",
                 "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    assert sorted(calls) == [2, 4, 8]


def test_transform_chain_artifacts(tmp_path):
    out = tmp_path / "chain"
    code = main(["transform-chain", *FAST_CHAIN, "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "chain_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["identity_residual_max"] <= 1e-9
    for name in ("chain_original.csv", "chain_transformed.csv",
                 "chain_coefficients.csv"):
        assert (out / name).exists()


def test_verify_ok(tmp_path, capsys):
    code = main(["verify", "--set", "partition.n=32",
                 "--set", "simulation.n_paths=4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "flow_roundtrip" in names and "chain_identity" in names


def test_verify_assumption_failure_exits_3(tmp_path):
    code = main(["verify", "--set", "model.params.sigma0=0",
                 "--out", str(tmp_path)])
    assert code == EXIT_ASSUMPTION
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False


def test_verify_numeric_failure_exits_4(tmp_path, monkeypatch):
    # Even a loose flow_tol keeps the sine round trip inside its 1e-7
    # gate, so the inverse flow is made to miss by 1e-6.
    inverse_flow = cli.inverse_flow
    monkeypatch.setattr(cli, "inverse_flow",
                        lambda *args: inverse_flow(*args) + 1e-6)
    code = main(["verify", "--set", 'suite=["assumptions","flow_roundtrip"]',
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL


def test_verify_loose_flow_tol_fails_inverse_jacobian(tmp_path):
    # g_star @ g_star_inv drifts from I by about 1e-6 at flow_tol 0.01,
    # against the check's 1e-8 gate.
    code = main(["verify", "--set", "transform.flow_tol=0.01",
                 "--set", 'suite=["assumptions","inverse_jacobian"]',
                 "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["inverse_jacobian"]


def test_verify_jacobian_limit_uses_configured_flow_tol(tmp_path, monkeypatch):
    # The reference g_star of the jacobian_limit check is solved at
    # transform.flow_tol, like every other flow check of verify.
    seen = []
    check = cli.jacobian_limit_check

    def spy(*args, **kwargs):
        seen.append(inspect.signature(check).bind(*args, **kwargs).arguments
                    .get("flow_tol"))
        return check(*args, **kwargs)
    monkeypatch.setattr(cli, "jacobian_limit_check", spy)
    code = main(["verify", "--set", "transform.flow_tol=1e-8",
                 "--set", 'suite=["assumptions","jacobian_limit"]',
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert seen == [1e-8]


def test_verify_chain_checks_run_the_configured_chain(tmp_path, monkeypatch):
    # verify's chain gates run transform-chain's chain: the configured
    # quadrature rule and innovation, on at most 16 paths and 128 steps.
    seen = {}
    for name, key in (("simulate_chain", "innovation"),
                      ("transform_chain", "quad_nodes")):
        def spy(*args, _fn=getattr(cli, name), _key=key, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(_key, []).append(bound.arguments[_key])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    chain_cfg = ["--set", "transform.quad_nodes=4",
                 "--set", "simulation.innovation=rademacher",
                 "--set", "partition.n=32", "--set", "simulation.n_paths=4"]
    main(["verify", *chain_cfg,
          "--set", 'suite=["assumptions","chain_identity"]',
          "--out", str(tmp_path / "verify")])
    assert seen == {"innovation": ["rademacher"], "quad_nodes": [4]}
    assert main(["transform-chain", *chain_cfg,
                 "--out", str(tmp_path / "chain")]) in (EXIT_OK, EXIT_NUMERICAL)
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    summary = json.loads((tmp_path / "chain" / "chain_summary.json").read_text())
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert measured["chain_identity"] == summary["identity_residual_max"]


@pytest.mark.parametrize("command", ["transform-chain", "verify"])
def test_all_diverged_chain_exits_4(tmp_path, capsys, monkeypatch, command):
    real = cli.transform_chain

    def diverged(*args, **kwargs):
        tr = real(*args, **kwargs)
        tr.flagged[:] = True
        return tr
    monkeypatch.setattr(cli, "transform_chain", diverged)
    code = main([command, *FAST_CHAIN, "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    assert "all chain paths diverged" in capsys.readouterr().err


def test_linalg_error_exits_4(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not
    # a configuration error.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(cli, "transform_chain", singular)
    code = main(["transform-chain", *FAST_CHAIN, "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL


def test_contraction_violation_exits_5(tmp_path):
    # Sine has m_f = 1; one step of h = 1 breaks h m_f < 1/2.
    assert main(["transform-chain", "--set", "simulation.n_paths=2",
                 "--set", "partition.n=1",
                 "--out", str(tmp_path)]) == EXIT_INVERSION


def test_default_quad_nodes_pass_chain_gates(tmp_path):
    # The default quadrature must pass the one-step identity gate on a
    # seed where 8 nodes missed it (sine d=2, geometric n=32).
    code = main(["transform-chain",
                 "--set", 'model.params={"alpha": 0.8, "beta": 1.3, "dim": 2}',
                 "--set", "partition.kind=geometric", "--set", "partition.n=32",
                 "--set", "simulation.n_paths=128", "--set", "simulation.seed=8",
                 "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "chain_summary.json").read_text())
    assert code == EXIT_OK
    assert summary["quad_nodes"] == 16
    # 8 first-pass nodes suffice on most of the 4,096 path-steps.
    assert 0 < summary["quad_refined"] <= 0.1 * 128 * 32
    assert summary["identity_residual_max"] <= 1e-9


def test_unknown_key_exits_2(tmp_path, capsys):
    assert main(["verify", "--set", "model.bogus=1",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_partition_horizon_key_is_unknown(tmp_path, capsys):
    # The chain partition always spans the model horizon.
    assert main(["transform-chain", *FAST_CHAIN, "--set", "partition.T=1.0",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown keys in partition: ['T']" in capsys.readouterr().err


def test_bad_quad_nodes_exits_2(tmp_path):
    assert main(["transform-chain", *FAST_CHAIN,
                 "--set", "transform.quad_nodes=1",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_unknown_suite_name_exits_2(tmp_path):
    assert main(["verify", "--set", 'suite=["not_a_check"]',
                 "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("expr, message", [
    ("model=[]", "model must be a JSON object"),
    ("transform=[]", "transform must be a JSON object"),
    ('model="sine"', "model must be a JSON object"),
    ('suite="liouville"', "suite must be a list"),
    ("simulation.n_steps=[]", "simulation.n_steps must not be empty"),
    ("transform.quad_nodes=1", "transform.quad_nodes must be >= 2"),
    ("transform.inversion_tol=nan", "transform.inversion_tol must be finite and > 0"),
    ("transform.inversion_tol=1e999", "transform.inversion_tol must be finite and > 0"),
    ("transform.flow_tol=-1", "transform.flow_tol must be finite and > 0"),
    ("transform.flow_tol=0", "transform.flow_tol must be finite and > 0"),
])
def test_config_section_of_wrong_type_exits_2(tmp_path, capsys, expr, message):
    assert main(["verify", "--set", expr, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform-sde", "transform-chain",
                                     "verify"])
@pytest.mark.parametrize("expr", ["transform.quad_nodes=1",
                                  "transform.inversion_tol=nan",
                                  "transform.flow_tol=-1",
                                  "simulation.innovation=bogus",
                                  "partition.kind=bogus",
                                  "simulation.n_steps=[4,4,4]"])
def test_bad_transform_setting_exits_2_before_any_work(tmp_path, capsys,
                                                       command, expr):
    assert main([command, "--set", expr, "--out", str(tmp_path)]) == EXIT_CONFIG
    key = expr.split("=")[0]
    assert f"config error: {key} must" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_malformed_config_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG


def test_console_script_end_to_end(tmp_path):
    # The installed entry point must behave like main(); one subprocess
    # round trip guards the packaging wiring.
    out = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "detrend_sde", "transform-sde", *FAST_SDE,
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()
