"""The three benchmark workloads.

Each workload turns the seed into its inputs (configs or query points),
builds what it needs once (``setup``), then serves one operation at a
time (``run_op``).  An operation is timed around the call into
detrend_sde only; its correctness gate runs afterwards, untimed.  Every
library call goes through a module attribute (``cli.main``,
``flow.inverse_flow``, ...) so that the traced run can wrap it.

Importing this module imports detrend_sde, which the set-up time
includes.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from detrend_sde import chain, cli, flow, models, parallel, transform

# Componentwise sine drift in two dimensions: a curved flow whose
# first and second derivatives stay bounded.
SINE2 = {"alpha": 0.8, "beta": 1.3, "dim": 2}

# The repo's own gates (cli.cmd_transform_chain, cli verify
# flow_roundtrip, chain.DEFAULT_INVERSION_TOL).
CHAIN_RECONSTRUCTION_MAX = 1e-8
CHAIN_IDENTITY_MAX = 1e-9
ROUNDTRIP_REL = 1e-7
INVERSION_TOL = chain.DEFAULT_INVERSION_TOL

SIZES = {
    # Refinements a factor of 4 apart keep the CLI's monotone-discrepancy
    # gate far from its edge on every seed (a factor of 2 at 64 paths
    # fails on a few seeds in a thousand).  Jobs stay short enough that
    # a run holds 15 to 20 of them.
    "sde-ensemble": {"n_paths": 32, "n_steps": [2, 8, 32]},
    # Two 64-path blocks, so two workers each get one.  Sixteen
    # quadrature nodes: with fewer, rare large innovations push the
    # identity residual past the 1e-9 gate (see README.md).
    "chain-detrend": {"n_paths": 128, "n": 32, "quad_nodes": 16},
    "point-queries": {"partition_n": 64},
}


def worker_threads(wanted: int = 2) -> int:
    """Thread count for the threaded workload, capped by the CPUs this
    process may run on."""
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


class timed:
    """Times the call into detrend_sde and, in the traced run, switches
    the tracer on for exactly that interval."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.active = False
        return False


@dataclass
class OpResult:
    seconds: float
    problems: list = field(default_factory=list)
    bytes_written: int = 0
    start: float = 0.0  # perf_counter at the start of the timed call
    ref_seconds: float = 0.0  # seconds at the reference speed (run.py)


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class CliWorkload:
    """One operation is one CLI job, run in-process through cli.main on a
    config file generated from (seed, op index)."""

    ops_per_job = 1
    command = ""
    artifacts: tuple = ()
    threads = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.size = SIZES[self.name]
        self.workdir = workdir
        self.model = None

    def config(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, out: str, cfg: dict) -> list:
        raise NotImplementedError

    def inputs(self, i: int) -> dict:
        return self.config(i)

    def drifts(self) -> list:
        """Drifts the operations use that exist before they run (none:
        every CLI job builds its own model)."""
        return []

    def run_op(self, i: int, tracer=None) -> OpResult:
        cfg = self.config(i)
        out = tempfile.mkdtemp(prefix=f"job{i}-", dir=self.workdir)
        cfg["output"] = {"dir": out}
        path = os.path.join(self.workdir, f"job{i}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        os.environ[parallel.ENV_THREADS] = str(self.threads)
        try:
            with timed(tracer) as clock:
                rc = cli.main([self.command, "--config", path])
            problems = [] if rc == cli.EXIT_OK else [f"exit code {rc}"]
            missing = [a for a in self.artifacts
                       if not os.path.isfile(os.path.join(out, a))]
            problems += [f"missing artifact {a}" for a in missing]
            if not problems:
                problems += self.check(out, cfg)
            return OpResult(clock.seconds, problems, _tree_bytes(out),
                            start=clock.start)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            os.remove(path)


class SdeEnsemble(CliWorkload):
    name = "sde-ensemble"
    command = "transform-sde"
    artifacts = ("paths.csv", "discrepancy.csv", "scan.json", "summary.json")

    @property
    def path_steps_per_job(self) -> int:
        return self.size["n_paths"] * sum(self.size["n_steps"])

    def config(self, i: int) -> dict:
        sim_seed = int(_rng(self.seed, i).integers(2**31))
        return {"model": {"name": "sine", "params": dict(SINE2)},
                "simulation": {"n_paths": self.size["n_paths"],
                               "n_steps": list(self.size["n_steps"]),
                               "seed": sim_seed}}

    def setup(self) -> None:
        self.model = models.builtin_model("sine", **SINE2)
        models.check_assumptions(self.model)
        self.tc = transform.make_transform(self.model)
        n0 = self.size["n_steps"][0]
        x0 = np.broadcast_to(self.model.x0, (self.size["n_paths"], self.model.dim))
        m, s = self.tc.evaluate_batch(self.model.horizon / n0, x0)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise RuntimeError("warm-up produced non-finite coefficients")

    def check(self, out: str, cfg: dict) -> list:
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "scan.json")) as fh:
            scan = json.load(fh)
        problems = []
        if summary["n_steps"] != cfg["simulation"]["n_steps"]:
            problems.append("summary lists other refinements")
        if summary["flagged"] != 0:
            problems.append(f"{summary['flagged']} paths overflowed")
        if not all(np.isfinite(summary["terminal_mean_discrepancy"])):
            problems.append("non-finite discrepancy")
        if not scan["checks"]["finite"]["passed"] or not scan["passed"]:
            problems.append("coefficient scan failed")
        return problems

    def parallel_probe(self):
        """One transformed simulation of the first refinement."""
        n0 = self.size["n_steps"][0]
        return lambda: transform.simulate_transformed(
            self.tc, n0, self.size["n_paths"], self.seed)


class ChainDetrend(CliWorkload):
    name = "chain-detrend"
    command = "transform-chain"
    artifacts = ("chain_original.csv", "chain_transformed.csv",
                 "chain_coefficients.csv", "chain_summary.json")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.threads = worker_threads()

    @property
    def path_steps_per_job(self) -> int:
        return self.size["n_paths"] * self.size["n"]

    def config(self, i: int) -> dict:
        sim_seed = int(_rng(self.seed, i).integers(2**31))
        return {"model": {"name": "sine", "params": dict(SINE2)},
                "partition": {"kind": "geometric", "n": self.size["n"],
                              "c": 1.0},
                "simulation": {"n_paths": self.size["n_paths"],
                               "seed": sim_seed},
                "transform": {"quad_nodes": self.size["quad_nodes"]}}

    def setup(self) -> None:
        self.model = models.builtin_model("sine", **SINE2)
        models.check_assumptions(self.model)
        self.partition = chain.make_partition(self.size["n"], "geometric",
                                              T=self.model.horizon, c=1.0)
        y = self.model.x0 + 1.0
        x = chain.invert_broken_line(self.model.drift, self.partition,
                                     self.partition.n, y)
        if not np.all(np.isfinite(x)):
            raise RuntimeError("warm-up inversion produced non-finite values")

    def check(self, out: str, cfg: dict) -> list:
        with open(os.path.join(out, "chain_summary.json")) as fh:
            s = json.load(fh)
        problems = []
        if not s["reconstruction_max"] <= CHAIN_RECONSTRUCTION_MAX:
            problems.append(f"reconstruction_max {s['reconstruction_max']:.3e}")
        if not s["identity_residual_max"] <= CHAIN_IDENTITY_MAX:
            problems.append(f"identity_residual_max {s['identity_residual_max']:.3e}")
        if not (np.isfinite(s["m_tilde_sup"]) and np.isfinite(s["sigma_tilde_sup"])):
            problems.append("non-finite chain coefficients")
        if s["flagged"] != 0:
            problems.append(f"{s['flagged']} chain paths overflowed")
        return problems

    def parallel_probe(self):
        """transform_chain on one job's inputs (the threaded part)."""
        cfg = self.config(0)
        run = chain.simulate_chain(self.model, self.partition,
                                   self.size["n_paths"],
                                   cfg["simulation"]["seed"])
        return lambda: chain.transform_chain(
            self.model, self.partition, run,
            quad_nodes=self.size["quad_nodes"])


# (model name, parameters, dimension) for point queries.
QUERY_MODELS = (
    ("scalar_logistic_bounded", {"a": 2.0}, 1),
    ("linear", {"b": [[0.3, -0.5], [0.2, 0.1]]}, 2),
    ("zero_drift", {"dim": 2}, 2),
    ("sine", {"alpha": 0.8, "beta": 1.3, "dim": 3}, 3),
)
QUERY_KINDS = ("coefficients", "detrend", "map_back", "invert_chain")


@dataclass
class Query:
    kind: str
    model: int
    t: float
    point: np.ndarray
    level: int


class PointQueries:
    """Closed loop, one client: single-point requests, each issued after
    the previous one returned.  A job is one session of 16 requests,
    one per (model, request kind), in a seeded order."""

    name = "point-queries"
    ops_per_job = len(QUERY_MODELS) * len(QUERY_KINDS)
    path_steps_per_job = ops_per_job  # each request moves one point one step
    threads = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.size = SIZES[self.name]
        self.workdir = workdir
        self.built = []

    def inputs(self, i: int) -> Query:
        """Request i, a pure function of (seed, i)."""
        session, slot = divmod(i, self.ops_per_job)
        order = _rng(self.seed, session).permutation(self.ops_per_job)
        pair = int(order[slot])
        model_idx, kind_idx = divmod(pair, len(QUERY_KINDS))
        rng = _rng(self.seed, session, slot)
        t = float(rng.uniform(0.05, 1.0))
        point = rng.uniform(-2.0, 2.0, QUERY_MODELS[model_idx][2])
        level = int(rng.integers(1, self.size["partition_n"] + 1))
        return Query(QUERY_KINDS[kind_idx], model_idx, t, point, level)

    def setup(self) -> None:
        self.built = []
        for name, params, _ in QUERY_MODELS:
            model = models.builtin_model(name, **params)
            models.check_assumptions(model)
            tc = transform.make_transform(model)
            part = chain.make_partition(self.size["partition_n"], "geometric",
                                        T=model.horizon, c=1.0)
            self.built.append((model, tc, part))
        model, tc, _ = self.built[-1]
        m, s = tc.evaluate_batch(0.5, model.x0[None, :])
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise RuntimeError("warm-up produced non-finite coefficients")

    def drifts(self) -> list:
        return [model.drift for model, _, _ in self.built]

    def _call(self, q: Query):
        model, tc, part = self.built[q.model]
        t = q.t * model.horizon
        point = model.x0 + q.point
        if q.kind == "coefficients":
            return tc.evaluate_batch(t, point[None, :])
        if q.kind == "detrend":
            return flow.inverse_flow(model.drift, t, point)
        if q.kind == "map_back":
            return flow.advance_flow(model.drift, 0.0, t, point)
        return chain.invert_broken_line(model.drift, part, q.level, point)

    def _check(self, q: Query, out) -> list:
        model, _, part = self.built[q.model]
        t = q.t * model.horizon
        point = model.x0 + q.point
        if q.kind == "coefficients":
            m, s = out
            ok = m.shape == (1, model.dim) and np.all(np.isfinite(m)) \
                and np.all(np.isfinite(s))
            return [] if ok else ["non-finite coefficients"]
        if q.kind == "detrend":
            back = flow.advance_flow(model.drift, 0.0, t, out)
        elif q.kind == "map_back":
            back = flow.inverse_flow(model.drift, t, out)
        else:
            bl = chain.broken_line(model.drift, part, out)
            err = float(np.linalg.norm(bl.values[q.level] - point))
            return [] if err <= INVERSION_TOL else \
                [f"broken line inversion residual {err:.3e}"]
        err = float(np.linalg.norm(back - point))
        bound = ROUNDTRIP_REL * (1.0 + float(np.linalg.norm(point)))
        return [] if err <= bound else [f"{q.kind} round trip {err:.3e}"]

    def run_op(self, i: int, tracer=None) -> OpResult:
        q = self.inputs(i)
        with timed(tracer) as clock:
            out = self._call(q)
        return OpResult(clock.seconds, self._check(q, out), start=clock.start)

    def parallel_probe(self):
        """One session of requests (no path-block work)."""
        return lambda: [self._call(self.inputs(i))
                        for i in range(self.ops_per_job)]


WORKLOADS = {cls.name: cls for cls in (SdeEnsemble, ChainDetrend, PointQueries)}
