"""Command line runner.

Subcommands: transform-sde, transform-chain, verify, list-models.
Configuration is a strict JSON document (unknown keys rejected);
--set key=value overrides nested fields by dotted path.  Every output
artifact embeds the resolved configuration hash and the library
version; reruns of an identical configuration are bitwise identical.

Exit codes: 0 success, 2 configuration error, 3 assumption failure,
4 numerical failure, 5 inversion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (DEFAULT_INVERSION_TOL, DEFAULT_QUAD_NODES, broken_line,
                    inverse_jacobian_product, jacobian_limit_check,
                    make_partition, product_jacobian, simulate_chain,
                    transform_chain)
from .diagnostics import boundedness_scan, strong_order_estimate
from .errors import (AssumptionError, ConfigError, DetrendError,
                     FlowIntegrationError, InversionError,
                     SingularJacobianError)
from .flow import (DEFAULT_TOL, advance_flow, advance_flow_many, flow_jet_many,
                   flow_time_derivatives, inverse_flow)
from .models import (_sampling_box, _spectral_norms, builtin_model,
                     check_assumptions, list_builtin_models)
from .sampling import sample_box, sample_time_box
from .transform import (_discrepancy_table, make_transform, map_back,
                        pushforward_discrepancy, simulate_original,
                        simulate_transformed)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERICAL = 4
EXIT_INVERSION = 5

ALL_CHECKS = [
    "assumptions", "flow_roundtrip", "flow_semigroup", "inverse_jacobian",
    "liouville", "time_derivatives", "boundedness", "telescoping",
    "gronwall", "inverse_product", "chain_reconstruction", "chain_identity",
    "jacobian_limit",
]


def _strict(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _section(cls, d: dict, where: str, **casts):
    """cls from the JSON object d.  A missing field takes the dataclass
    default; a given one is passed through its cast, if it has one, in
    the order the casts are listed."""
    _strict(d, {f.name for f in dataclasses.fields(cls)}, where)
    return cls(**{**d, **{k: cast(d[k]) for k, cast in casts.items() if k in d}})


def _n_steps(v):
    if not isinstance(v, list):
        return int(v)
    if not v:
        raise ConfigError("simulation.n_steps must not be empty")
    return [int(s) for s in v]


def _tolerance(key: str):
    def cast(v):
        v = float(v)
        if not 0.0 < v < np.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {v}")
        return v
    return cast


def _quad_nodes(v):
    v = int(v)
    if v < 2:
        raise ConfigError(f"transform.quad_nodes must be >= 2, got {v}")
    return v


def _suite(v):
    if not isinstance(v, list):
        raise ConfigError("suite must be a list")
    unknown = set(v) - set(ALL_CHECKS)
    if unknown:
        raise ConfigError(f"unknown suite checks: {sorted(unknown)}")
    return list(v)


@dataclass
class ModelConfig:
    name: str = "sine"
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return _section(cls, d, "model", params=dict)


@dataclass
class PartitionConfig:
    kind: str = "uniform"
    n: int = 256
    T: float | None = None  # uncast: 1 and 1.0 hash differently
    c: float = 1.0

    @classmethod
    def from_dict(cls, d: dict) -> "PartitionConfig":
        return _section(cls, d, "partition", n=int, c=float)


@dataclass
class SimulationConfig:
    n_paths: int = 100
    n_steps: object = 256  # int or list of ints (refinement study)
    seed: int = 0
    innovation: str = "normal"

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationConfig":
        return _section(cls, d, "simulation", n_steps=_n_steps, n_paths=int,
                        seed=int)


@dataclass
class TransformConfig:
    flow_tol: float = DEFAULT_TOL
    quad_nodes: int = DEFAULT_QUAD_NODES
    inversion_tol: float = DEFAULT_INVERSION_TOL

    @classmethod
    def from_dict(cls, d: dict) -> "TransformConfig":
        return _section(cls, d, "transform",
                        flow_tol=_tolerance("transform.flow_tol"),
                        quad_nodes=_quad_nodes,
                        inversion_tol=_tolerance("transform.inversion_tol"))


@dataclass
class OutputConfig:
    dir: str = "out"

    @classmethod
    def from_dict(cls, d: dict) -> "OutputConfig":
        return _section(cls, d, "output", dir=str)


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    transform: TransformConfig = field(default_factory=TransformConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    suite: list = field(default_factory=lambda: list(ALL_CHECKS))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _section(cls, d, "config", suite=_suite,
                        model=ModelConfig.from_dict,
                        partition=PartitionConfig.from_dict,
                        simulation=SimulationConfig.from_dict,
                        transform=TransformConfig.from_dict,
                        output=OutputConfig.from_dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def hash(self) -> str:
        # Covers the fields that determine the computation; the output
        # location must not change artifact bytes.
        d = self.to_dict()
        del d["output"]
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_set(d: dict, key: str, value) -> None:
    parts = key.split(".")
    node = d
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object field")
    node[parts[-1]] = value


def load_config(args) -> ExperimentConfig:
    raw: dict = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for expr in getattr(args, "set", None) or []:
        key, value = _parse_set(expr)
        _apply_set(raw, key, value)
    if getattr(args, "seed", None) is not None:
        _apply_set(raw, "simulation.seed", int(args.seed))
    if getattr(args, "out", None):
        _apply_set(raw, "output.dir", args.out)
    try:
        return ExperimentConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Artifact writing

def _meta_line(cfg: ExperimentConfig) -> str:
    return f"# detrend-sde {__version__} config_sha256={cfg.hash()}"


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_meta_line(cfg) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_sha256"] = cfg.hash()
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _path_rows(times, paths, scheme):
    """[path_id, step, t, y_1..y_d, scheme] rows as Python numbers, whose
    str is the shortest round-trip repr; one path is converted at a time."""
    times = times.tolist()
    for p, path in enumerate(paths):
        for k, (t, y) in enumerate(zip(times, path.tolist())):
            yield [p, k, t, *y, scheme]


# ---------------------------------------------------------------------------
# Subcommands

def _build_model(cfg: ExperimentConfig):
    model = builtin_model(cfg.model.name, **cfg.model.params)
    report = check_assumptions(model)
    if not report.passed:
        raise AssumptionError(
            "assumption check failed: "
            + ", ".join(n for n, e in report.entries.items() if not e.passed))
    return model


def cmd_transform_sde(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    tc = make_transform(model, flow_tol=cfg.transform.flow_tol)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    d = model.dim
    header = ["path_id", "step", "t"] + [f"y_{i+1}" for i in range(d)] + ["scheme"]

    n_list = cfg.simulation.n_steps
    n_list = [n_list] if isinstance(n_list, int) else list(n_list)
    seed = cfg.simulation.seed
    n_paths = cfg.simulation.n_paths

    orig = simulate_original(model, n_list[0], n_paths, seed)
    trans = simulate_transformed(tc, n_list[0], n_paths, seed)
    mapped = map_back(tc, trans)

    def rows():
        for ens in (orig, trans, mapped):
            yield from _path_rows(ens.times, ens.paths, ens.scheme)
    _write_csv(out / "paths.csv", cfg, header, rows())

    # The first refinement reuses the ensembles of paths.csv.
    tables = [_discrepancy_table(orig, mapped)]
    tables += [pushforward_discrepancy(model, tc, n, n_paths, seed)
               for n in n_list[1:]]
    disc_header = ["n_steps", "step", "t", "mean_discrepancy", "max_discrepancy"]

    def disc_rows():
        for tab in tables:
            for k in range(tab.times.size):
                yield [tab.n_steps, k, tab.times[k], tab.mean[k], tab.max[k]]
    _write_csv(out / "discrepancy.csv", cfg, disc_header, disc_rows())

    scan = boundedness_scan(tc, n_samples=min(128, 16 * max(1, d)),
                            seed=seed)
    _write_json(out / "scan.json", cfg, scan.to_dict())

    summary = {
        "model": cfg.model.name,
        "n_steps": n_list,
        "n_paths": n_paths,
        "seed": seed,
        "flagged": int(orig.flagged.sum() + mapped.flagged.sum()),
        "terminal_mean_discrepancy": [tab.terminal_mean for tab in tables],
        "scan_passed": scan.passed,
    }
    decreasing = True
    if len(tables) >= 3:
        conv = strong_order_estimate(tables)
        summary["strong_order"] = conv.slope
        summary["monotone_violations"] = conv.monotone_violations
        decreasing = conv.degenerate or conv.monotone_violations == 0
    _write_json(out / "summary.json", cfg, summary)
    return EXIT_OK if scan.passed and decreasing else EXIT_NUMERICAL


def cmd_transform_chain(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    T = cfg.partition.T if cfg.partition.T is not None else model.horizon
    if abs(T - model.horizon) > 1e-12:
        raise ConfigError("partition horizon must match the model horizon")
    part = make_partition(cfg.partition.n, cfg.partition.kind, T=T,
                          c=cfg.partition.c)
    run = simulate_chain(model, part, cfg.simulation.n_paths,
                         cfg.simulation.seed, innovation=cfg.simulation.innovation)
    tr = transform_chain(model, part, run, quad_nodes=cfg.transform.quad_nodes,
                         inversion_tol=cfg.transform.inversion_tol)
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    d = model.dim
    header = ["path_id", "step", "t"] + [f"y_{i+1}" for i in range(d)] + ["scheme"]
    _write_csv(out / "chain_original.csv", cfg, header,
               _path_rows(part.times, run.states, "original"))
    _write_csv(out / "chain_transformed.csv", cfg, header,
               _path_rows(part.times, tr.states, "transformed"))

    ok = ~tr.flagged
    if not ok.any():
        raise FlowIntegrationError("all chain paths diverged", part.times[-1])
    m_sup = np.linalg.norm(tr.m_coeffs[ok], axis=2).max(axis=0)
    s_sup = _spectral_norms(tr.sigma_coeffs[ok]).max(axis=0)
    id_max = np.nanmax(tr.identity_residuals[ok], axis=0)
    rec_max = np.nanmax(tr.reconstruction_residuals[ok], axis=0)
    coeff_header = ["step", "t", "m_tilde_sup", "sigma_tilde_sup",
                    "identity_residual_max", "reconstruction_residual_max"]

    def coeff_rows():
        for k in range(part.n):
            yield [k, part.times[k], m_sup[k], s_sup[k], id_max[k], rec_max[k + 1]]
    _write_csv(out / "chain_coefficients.csv", cfg, coeff_header, coeff_rows())

    recon = float(np.nanmax(tr.reconstruction_residuals[ok]))
    ident = float(np.nanmax(tr.identity_residuals[ok]))
    summary = {
        "model": cfg.model.name,
        "partition": {"kind": cfg.partition.kind, "n": part.n,
                      "ratio": part.ratio_c},
        "n_paths": cfg.simulation.n_paths,
        "seed": cfg.simulation.seed,
        "quad_nodes": cfg.transform.quad_nodes,
        "quad_refined": int(tr.refined.sum()),
        "flagged": int(tr.flagged.sum()),
        "reconstruction_max": recon,
        "identity_residual_max": ident,
        "m_tilde_sup": float(m_sup.max()),
        "sigma_tilde_sup": float(s_sup.max()),
    }
    passed = recon <= 1e-8 and ident <= 1e-9
    summary["passed"] = passed
    _write_json(out / "chain_summary.json", cfg, summary)
    return EXIT_OK if passed else EXIT_NUMERICAL


def _verify_checks(cfg: ExperimentConfig):
    """Yield (name, category, passed, measured, tolerance) for the
    selected suite, on scaled-down sizes derived from the config."""
    try:
        model = _build_model(cfg)
        yield ("assumptions", "assumption", True, 0.0, 0.0)
    except AssumptionError:
        # No usable model; the remaining checks cannot run.
        yield ("assumptions", "assumption", False, np.inf, 0.0)
        return
    drift = model.drift
    d = model.dim
    T = model.horizon
    tol = cfg.transform.flow_tol
    seed = cfg.simulation.seed
    lo, hi = _sampling_box(model)
    wanted = set(cfg.suite)

    if "flow_roundtrip" in wanted:
        ts, ys = sample_time_box((T / 50.0, T), lo, hi, 20, seed)
        worst = 0.0
        for t, y in zip(ts, ys):
            x = inverse_flow(drift, float(t), y, tol)
            back = advance_flow(drift, 0.0, float(t), x, tol)
            worst = max(worst, float(np.linalg.norm(back - y) / (1.0 + np.linalg.norm(y))))
        yield ("flow_roundtrip", "numeric", worst <= 1e-7, worst, 1e-7)

    if "flow_semigroup" in wanted:
        xs = sample_box(lo, hi, 10, seed + 2)
        mid = advance_flow_many(drift, 0.0, T / 2.0, xs, tol)
        two = advance_flow_many(drift, T / 2.0, T, mid, tol)
        one = advance_flow_many(drift, 0.0, T, xs, tol)
        worst = float(np.linalg.norm(two - one, axis=1).max())
        yield ("flow_semigroup", "numeric", worst <= 1e-7, worst, 1e-7)

    if "inverse_jacobian" in wanted:
        xs = sample_box(lo, hi, 10, seed + 3)
        jets = flow_jet_many(drift, 0.0, T, xs, tol)
        worst = float(np.abs(jets["g_star"] @ jets["g_star_inv"] - np.eye(d)).max())
        yield ("inverse_jacobian", "numeric", worst <= 1e-8, worst, 1e-8)

    if "liouville" in wanted:
        ts, xs = sample_time_box((T / 50.0, T), lo, hi, 15, seed + 4)
        jets = flow_jet_many(drift, 0.0, ts, xs, tol, order=1)
        dd, dl = jets["det_g_star"], np.exp(jets["trace_integral"])
        worst = float((np.abs(dd - dl) / np.maximum(np.abs(dl), 1e-30)).max())
        yield ("liouville", "numeric", worst <= 1e-7, worst, 1e-7)

    if "time_derivatives" in wanted:
        ts, xs = sample_time_box((T / 10.0, T), lo, hi, 10, seed + 5)
        step = 1e-5
        worst = 0.0
        for t, x in zip(ts, xs):
            t = float(t)
            d6, d7 = flow_time_derivatives(drift, 0.0, t, x, tol)
            y = advance_flow(drift, 0.0, t, x, tol)
            fd7 = (inverse_flow(drift, t + step, y, tol)
                   - inverse_flow(drift, t - step, y, tol)) / (2 * step)
            num = float(np.linalg.norm(fd7 - d7))
            worst = max(worst, num / max(np.linalg.norm(d7), 1e-12))
        yield ("time_derivatives", "numeric", worst <= 1e-4, worst, 1e-4)

    if "boundedness" in wanted:
        tc = make_transform(model, flow_tol=tol)
        scan = boundedness_scan(tc, n_samples=64, seed=seed)
        measured = scan.sups["m_tilde_norm"].value
        yield ("boundedness", "numeric", scan.passed, measured, np.inf)

    part = make_partition(min(cfg.partition.n, 128), cfg.partition.kind,
                          T=T, c=cfg.partition.c)
    bl = broken_line(drift, part, model.x0)

    if "telescoping" in wanted:
        diff = float(np.abs(bl.jacobians[part.n] - product_jacobian(bl, part.n)).max())
        yield ("telescoping", "numeric", diff <= 1e-12, diff, 1e-12)

    if "gronwall" in wanted:
        norms = np.linalg.norm(bl.jacobians, axis=(1, 2))
        bound = np.sqrt(d) * np.exp(drift.m_f * T)
        worst = float(norms.max())
        yield ("gronwall", "numeric", worst <= bound * (1 + 1e-12), worst, bound)

    if "inverse_product" in wanted:
        diff = float(np.abs(inverse_jacobian_product(bl, part.n)
                            - np.linalg.inv(bl.jacobians[part.n])).max())
        yield ("inverse_product", "numeric", diff <= 1e-10, diff, 1e-10)

    if "chain_reconstruction" in wanted or "chain_identity" in wanted:
        n_paths = min(cfg.simulation.n_paths, 16)
        try:
            run = simulate_chain(model, part, n_paths, seed)
            tr = transform_chain(model, part, run,
                                 quad_nodes=max(cfg.transform.quad_nodes, 8),
                                 inversion_tol=cfg.transform.inversion_tol)
            ok = ~tr.flagged
            if "chain_reconstruction" in wanted:
                worst = float(np.nanmax(tr.reconstruction_residuals[ok]))
                yield ("chain_reconstruction", "inversion", worst <= 1e-8, worst, 1e-8)
            if "chain_identity" in wanted:
                worst = float(np.nanmax(tr.identity_residuals[ok]))
                yield ("chain_identity", "numeric", worst <= 1e-9, worst, 1e-9)
        except InversionError:
            if "chain_reconstruction" in wanted:
                yield ("chain_reconstruction", "inversion", False, np.inf, 1e-8)
            if "chain_identity" in wanted:
                yield ("chain_identity", "inversion", False, np.inf, 1e-9)

    if "jacobian_limit" in wanted:
        if drift.m_f == 0.0:
            yield ("jacobian_limit", "numeric", True, 0.0, 0.0)
        else:
            tab = jacobian_limit_check(drift, model.x0, T, [32, 64, 128, 256])
            slope = tab.slope if tab.slope is not None else np.nan
            ok = tab.degenerate or (0.8 <= slope <= 1.2)
            yield ("jacobian_limit", "numeric", ok, float(slope), 1.0)


def cmd_verify(cfg: ExperimentConfig) -> int:
    out = Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    failed_categories = set()
    for name, category, passed, measured, tolerance in _verify_checks(cfg):
        results.append({"name": name, "category": category,
                        "passed": bool(passed),
                        "measured": None if not np.isfinite(measured) else float(measured),
                        "tolerance": None if not np.isfinite(tolerance) else float(tolerance)})
        if not passed:
            failed_categories.add(category)
        status = "pass" if passed else "FAIL"
        print(f"{status:4s} {name} (measured={measured:.3e})")
    _write_json(out / "verify_report.json", cfg,
                {"checks": results,
                 "passed": not failed_categories})
    if "assumption" in failed_categories:
        return EXIT_ASSUMPTION
    if "inversion" in failed_categories:
        return EXIT_INVERSION
    if failed_categories:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_list_models() -> int:
    for name, doc in list_builtin_models():
        print(f"{name}: {doc}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON config path")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field by dotted path")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="simulation seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="detrend-sde",
        description="Remove a smooth trend from an SDE or Euler chain and "
                    "verify the transformed dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("transform-sde", "transform-chain", "verify"):
        _add_common(sub.add_parser(name))
    sub.add_parser("list-models")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config exit code.
        return int(exc.code) if exc.code else 0

    try:
        if args.command == "list-models":
            return cmd_list_models()
        cfg = load_config(args)
        if args.command == "transform-sde":
            return cmd_transform_sde(cfg)
        if args.command == "transform-chain":
            return cmd_transform_chain(cfg)
        return cmd_verify(cfg)
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a numerical failure, not bad input.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, TypeError) as exc:
        # Library-level ValueError/TypeError signal invalid caller input
        # (bad partition kind, negative seed, ...).
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except InversionError as exc:
        print(f"inversion failure: {exc}", file=sys.stderr)
        return EXIT_INVERSION
    except (FlowIntegrationError, SingularJacobianError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DetrendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
