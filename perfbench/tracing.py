"""In-memory span tracer wrapped around detrend_sde's module attributes.

Nothing under src/ is edited: ``Tracer.install`` replaces the module
attributes that callers resolve at call time (``cli.simulate_transformed``,
``transform.flow_jet_many``, ``rk.integrate``, ``parallel.run_chunked``,
...) and a model's drift callables with timing wrappers, and
``uninstall`` puts the originals back.

A span is (id, name, layer, start, end, parent, request, thread).  A
layer's self time is its spans' durations minus the part covered by
their child spans; children that ran on worker threads are merged as
intervals, so overlapping chunks are not subtracted twice.  The hot
leaves (ODE right-hand sides and drift callables, thousands per
operation) are timed and counted like any span but not stored, which
keeps the span file to the layer boundaries above them.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from detrend_sde import (chain, cli, diagnostics, flow, models, parallel, rk,
                         transform)

LAYERS = ("cli", "models", "rk", "flow", "transform", "noise", "chain",
          "parallel", "diagnostics", "sampling")

# Context bits inherited by child spans.
_CHAIN = 1    # inside a chain inversion (transform_chain, invert_broken_line)
_SCAN = 2     # inside a boundedness scan
_JET = 4      # inside a jet solve: the ODE right-hand side is the jet kernel

# (module, attribute, span name, context bit); the layer is the span
# name's prefix.
_PATCHES = (
    (cli, "main", "cli.main", 0),
    (cli, "builtin_model", "models.builtin_model", 0),
    (models, "builtin_model", "models.builtin_model", 0),
    (cli, "check_assumptions", "models.check_assumptions", 0),
    (models, "check_assumptions", "models.check_assumptions", 0),
    (cli, "make_transform", "transform.make_transform", 0),
    (transform, "make_transform", "transform.make_transform", 0),
    (cli, "simulate_original", "transform.simulate_original", 0),
    (transform, "simulate_original", "transform.simulate_original", 0),
    (cli, "simulate_transformed", "transform.simulate_transformed", 0),
    (transform, "simulate_transformed", "transform.simulate_transformed", 0),
    (cli, "map_back", "transform.map_back", 0),
    (transform, "map_back", "transform.map_back", 0),
    (cli, "pushforward_discrepancy", "transform.pushforward_discrepancy", 0),
    (transform.TransformedCoefficients, "evaluate_batch",
     "transform.evaluate_batch", 0),
    (transform, "flow_jet_many", "flow.jet", _JET),
    (transform, "advance_flow_many", "flow.advance", 0),
    (flow, "advance_flow_many", "flow.advance", 0),
    (flow, "inverse_flow", "flow.inverse_flow", 0),
    (flow, "advance_flow", "flow.advance_flow", 0),
    (transform, "normal_block", "noise.normal_block", 0),
    (transform, "rademacher_block", "noise.rademacher_block", 0),
    (cli, "make_partition", "chain.make_partition", 0),
    (chain, "make_partition", "chain.make_partition", 0),
    (cli, "simulate_chain", "chain.simulate_chain", 0),
    (chain, "simulate_chain", "chain.simulate_chain", 0),
    (cli, "transform_chain", "chain.transform_chain", _CHAIN),
    (chain, "transform_chain", "chain.transform_chain", _CHAIN),
    (chain, "invert_broken_line", "chain.invert_broken_line", _CHAIN),
    (cli, "boundedness_scan", "diagnostics.boundedness_scan", _SCAN),
    (cli, "strong_order_estimate", "diagnostics.strong_order_estimate", 0),
    (cli, "sample_box", "sampling.sample_box", 0),
    (cli, "sample_time_box", "sampling.sample_time_box", 0),
    (models, "sample_time_box", "sampling.sample_time_box", 0),
    (diagnostics, "sample_time_box", "sampling.sample_time_box", 0),
)

# Per-layer metrics: (name, unit, better, end-to-end metric it should
# move, workload it is measured on).  "op" is one CLI job on
# sde-ensemble and chain-detrend, one request on point-queries.
LAYER_METRICS = (
    ("flow.jet_calls", "count/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("flow.jet_rows", "count/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("flow.jet_s", "s/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("flow.advance_s", "s/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("flow.rhs_self_s", "s/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("flow.kernel_flops", "flop/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("rk.integrate_calls", "count/op", "lower",
     "path_steps_per_s; query_ms_p50", "sde-ensemble; point-queries"),
    ("rk.rhs_calls", "count/op", "lower",
     "path_steps_per_s; query_ms_p50", "sde-ensemble; point-queries"),
    ("rk.rhs_rows", "count/op", "lower",
     "path_steps_per_s; query_ms_p50", "sde-ensemble; point-queries"),
    ("rk.self_s", "s/op", "lower",
     "path_steps_per_s; query_ms_p50", "sde-ensemble; point-queries"),
    ("transform.simulate_transformed_s", "s/op", "lower",
     "path_steps_per_s; job_s_p50", "sde-ensemble"),
    ("transform.simulate_original_s", "s/op", "lower",
     "path_steps_per_s; job_s_p50", "sde-ensemble"),
    ("transform.map_back_s", "s/op", "lower",
     "path_steps_per_s; job_s_p50", "sde-ensemble"),
    ("transform.path_steps_simulated", "count/op", "lower",
     "path_steps_per_s; job_s_p50", "sde-ensemble"),
    ("transform.useful_ratio", "ratio", "higher",
     "path_steps_per_s; job_s_p50", "sde-ensemble"),
    ("models.drift_calls", "count/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("models.drift_rows", "count/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("models.drift_s", "s/op", "lower", "path_steps_per_s", "sde-ensemble"),
    ("models.check_assumptions_s", "s/call", "lower",
     "setup_s; job_s_p50", "point-queries; sde-ensemble, chain-detrend"),
    ("noise.blocks", "count/op", "lower", "none (predicted no change)",
     "sde-ensemble"),
    ("noise.s", "s/op", "lower", "none (predicted no change)", "sde-ensemble"),
    ("chain.transform_chain_s", "s/op", "lower", "path_steps_per_s",
     "chain-detrend"),
    ("chain.simulate_chain_s", "s/op", "lower", "path_steps_per_s",
     "chain-detrend"),
    ("chain.drift_calls", "count/op", "lower", "path_steps_per_s",
     "chain-detrend"),
    ("chain.invert_s", "s/op", "lower", "query_ms_p99", "point-queries"),
    ("parallel.chunks", "count/op", "lower", "path_steps_per_s", "chain-detrend"),
    ("parallel.chunk_s_max", "s", "lower", "path_steps_per_s", "chain-detrend"),
    ("parallel.chunk_s_sum", "s/op", "lower", "path_steps_per_s", "chain-detrend"),
    ("parallel.speedup", "ratio", "higher", "path_steps_per_s", "chain-detrend"),
    ("diagnostics.scan_s", "s/op", "lower", "job_s_p50", "sde-ensemble"),
    ("diagnostics.scan_points", "count/op", "lower", "job_s_p50", "sde-ensemble"),
    ("cli.self_s", "s/op", "lower", "job_s_p50", "sde-ensemble"),
    ("cli.bytes_written", "B/op", "lower", "job_s_p50", "sde-ensemble"),
    ("trace.overhead_pct", "%", "lower", "none (traced minus untraced)",
     "every workload"),
)


def jet_kernel_flops(d: int) -> int:
    """Floating-point operations of one jet right-hand side row, counted
    from the algebra (not measured): J Z and M J (2 d^3 each), J W
    (2 d^4), H(Z, Z) contracted pairwise (4 d^4), and the trace (d)."""
    return 4 * d**3 + 6 * d**4 + d


class _Frame:
    __slots__ = ("id", "name", "layer", "start", "child", "cross", "parent",
                 "remote", "ctx", "request", "store", "dim")

    def __init__(self, ident, name, parent, remote, ctx, request, store):
        self.id = ident
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.child = 0.0
        self.cross = []
        self.parent = parent
        self.remote = remote
        self.ctx = ctx | (parent.ctx if parent is not None else 0)
        self.request = parent.request if parent is not None else request
        self.store = store
        self.dim = parent.dim if parent is not None else 0
        self.start = 0.0


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.self_s = defaultdict(float)  # by span name
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._saved = []
        self.request = 0
        # Spans and counters are recorded only while active: the runner
        # sets it around the timed call of each operation.
        self.active = False

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def enter(self, name: str, ctx: int = 0, store: bool = True,
              parent: _Frame | None = None) -> _Frame:
        st = self._state()
        remote = parent is not None
        if parent is None and st.stack:
            parent = st.stack[-1]
        f = _Frame(next(self._ids), name, parent, remote, ctx, self.request,
                   store)
        st.stack.append(f)
        f.start = time.perf_counter()
        return f

    def exit(self, f: _Frame) -> float:
        end = time.perf_counter()
        st = self._state()
        st.stack.pop()
        dur = end - f.start
        covered = f.child + (_union_length(f.cross) if f.cross else 0.0)
        st.self_s[f.name] += dur - covered
        st.incl_s[f.name] += dur
        st.calls[f.name] += 1
        if f.parent is not None:
            if f.remote:
                f.parent.cross.append((f.start, end))
            else:
                f.parent.child += dur
        if f.store:
            st.spans.append((f.id, f.name, f.layer, f.start, end,
                             f.parent.id if f.parent is not None else 0,
                             f.request, threading.get_ident()))
        return dur

    def count(self, name: str, value: float = 1) -> None:
        self._state().counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        m = self._state().maxima
        m[name] = max(m[name], value)

    def current(self) -> _Frame | None:
        stack = self._state().stack
        return stack[-1] if stack else None

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str, ctx: int = 0, store: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            f = tracer.enter(name, ctx, store)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(f)
        return traced

    def _wrap(self, fn, name: str, ctx: int):
        special = {
            "models.builtin_model": self._wrap_builtin_model,
            "transform.simulate_transformed": self._wrap_simulate_transformed,
            "transform.evaluate_batch": self._wrap_evaluate_batch,
            "flow.jet": self._wrap_jet,
        }.get(name)
        return special(fn) if special else self._span(fn, name, ctx)

    def _wrap_builtin_model(self, fn):
        traced = self._span(fn, "models.builtin_model")

        def build(*args, **kwargs):
            model = traced(*args, **kwargs)
            self.instrument_drift(model.drift)
            return model
        return build

    def _wrap_simulate_transformed(self, fn):
        traced = self._span(fn, "transform.simulate_transformed")

        def simulate(tc, n_steps, n_paths, seed):
            if self.active:
                self.count("transform.path_steps_simulated", n_steps * n_paths)
            return traced(tc, n_steps, n_paths, seed)
        return simulate

    def _wrap_evaluate_batch(self, fn):
        traced = self._span(fn, "transform.evaluate_batch")
        tracer = self

        def evaluate_batch(tc, t, ys, return_jets=False):
            parent = tracer.current() if tracer.active else None
            if parent is not None and parent.ctx & _SCAN:
                tracer.count("diagnostics.scan_points", len(ys))
            return traced(tc, t, ys, return_jets)
        return evaluate_batch

    def _wrap_jet(self, fn):
        tracer = self

        def flow_jet_many(drift, t0, t1, xs, *args, **kwargs):
            if not tracer.active:
                return fn(drift, t0, t1, xs, *args, **kwargs)
            f = tracer.enter("flow.jet", _JET)
            f.dim = drift.dim
            tracer.count("flow.jet_calls")
            tracer.count("flow.jet_rows", len(xs))
            try:
                return fn(drift, t0, t1, xs, *args, **kwargs)
            finally:
                tracer.exit(f)
        return flow_jet_many

    def _wrap_integrate(self, fn):
        tracer = self

        def integrate(rhs, t0, t1, y0, *args, **kwargs):
            if not tracer.active:
                return fn(rhs, t0, t1, y0, *args, **kwargs)
            f = tracer.enter("rk.integrate")
            tracer.count("rk.integrate_calls")
            jet = bool(f.ctx & _JET)
            name = "flow.jet_rhs" if jet else "flow.state_rhs"
            flops = jet_kernel_flops(f.dim) if jet else 0

            def traced_rhs(t, u):
                g = tracer.enter(name, store=False)
                try:
                    return rhs(t, u)
                finally:
                    tracer.exit(g)
                    tracer.count("rk.rhs_calls")
                    tracer.count("rk.rhs_rows", len(u))
                    if jet:
                        tracer.count("flow.kernel_flops", flops * len(u))
            try:
                return fn(traced_rhs, t0, t1, y0, *args, **kwargs)
            finally:
                tracer.exit(f)
        return integrate

    def _wrap_run_chunked(self, fn):
        tracer = self

        def run_chunked(work, n_items, workers=None, block=None):
            if not tracer.active:
                return fn(work, n_items, workers, block)
            outer = tracer.enter("parallel.run_chunked")
            # A chunk's work belongs to the layer that asked for it;
            # parallel keeps only the scheduling and waiting around it.
            caller = outer.parent.layer if outer.parent is not None else "parallel"
            chunk_name = f"{caller}.chunk"

            def chunk(sl):
                g = tracer.enter(chunk_name, parent=outer)
                try:
                    return work(sl)
                finally:
                    dur = tracer.exit(g)
                    tracer.count("parallel.chunks")
                    tracer.count("parallel.chunk_s_sum", dur)
                    tracer.maximum("parallel.chunk_s_max", dur)
            try:
                return fn(chunk, n_items, workers, block)
            finally:
                tracer.exit(outer)
        return run_chunked

    def _drift_callable(self, fn):
        tracer = self

        def call(t, x):
            if not tracer.active:
                return fn(t, x)
            g = tracer.enter("models.drift", store=False)
            try:
                return fn(t, x)
            finally:
                tracer.exit(g)
                tracer.count("models.drift_calls")
                tracer.count("models.drift_rows", len(x) if np.ndim(x) > 1 else 1)
                if g.ctx & _CHAIN:
                    tracer.count("chain.drift_calls")
        return call

    def instrument_drift(self, drift) -> None:
        """Wrap a DriftSpec's f, jac and hess in place (undone by
        uninstall)."""
        for attr in ("f", "jac", "hess"):
            orig = getattr(drift, attr)
            self._saved.append((drift, attr, orig))
            setattr(drift, attr, self._drift_callable(orig))

    # -- install / uninstall ----------------------------------------------

    def install(self, drifts=()) -> None:
        """Wrap the module attributes, and the drifts of models built
        before the install (models built later are wrapped as
        builtin_model returns them)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, ctx in _PATCHES:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, ctx))
        for owner, attr, wrap in ((rk, "integrate", self._wrap_integrate),
                                  (parallel, "run_chunked",
                                   self._wrap_run_chunked)):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig))
        for drift in drifts:
            self.instrument_drift(drift)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- results -----------------------------------------------------------

    def totals(self):
        """Merged per-thread results: (self s, inclusive s and calls by
        span name, counters, maxima)."""
        self_s, incl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        counts, maxima = defaultdict(float), defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.self_s, self_s), (st.incl_s, incl),
                             (st.calls, calls), (st.counts, counts)):
                for k, v in src.items():
                    dst[k] += v
            for k, v in st.maxima.items():
                maxima[k] = max(maxima[k], v)
        return self_s, incl, calls, counts, maxima

    def write_spans(self, path: str) -> int:
        with self._lock:
            states = list(self._states)
        spans = sorted(s for st in states for s in st.spans)
        keys = ("id", "name", "layer", "start", "end", "parent", "request",
                "thread")
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
        return len(spans)


def layer_metrics(main: Tracer, setup: Tracer, n_ops: int,
                  requested_path_steps: float, speedup: float,
                  overhead_pct: float, time_scale: float):
    """Every per-layer metric of LAYER_METRICS from a traced run of
    n_ops operations, and the self time per op of each layer.  Times
    are multiplied by time_scale (the run's calibration to reference
    speed).  The set-up tracer supplies check_assumptions timings when
    the operations themselves never call it."""
    self_s, incl, calls, counts, maxima = main.totals()
    for table in (self_s, incl):
        for k in table:
            table[k] *= time_scale
    counts["parallel.chunk_s_sum"] *= time_scale
    maxima["parallel.chunk_s_max"] *= time_scale
    per = 1.0 / max(1, n_ops)
    checks = calls["models.check_assumptions"]
    if checks == 0:
        _, s_incl, s_calls, _, _ = setup.totals()
        checks = s_calls["models.check_assumptions"]
        check_s = s_incl["models.check_assumptions"] * time_scale
    else:
        check_s = incl["models.check_assumptions"]
    simulated = counts["transform.path_steps_simulated"]
    layer_self = defaultdict(float)
    for name, v in self_s.items():
        layer_self[name.split(".", 1)[0]] += v
    values = {
        "flow.jet_calls": counts["flow.jet_calls"] * per,
        "flow.jet_rows": counts["flow.jet_rows"] * per,
        "flow.jet_s": incl["flow.jet"] * per,
        "flow.advance_s": incl["flow.advance"] * per,
        "flow.rhs_self_s": self_s["flow.jet_rhs"] * per,
        "flow.kernel_flops": counts["flow.kernel_flops"] * per,
        "rk.integrate_calls": counts["rk.integrate_calls"] * per,
        "rk.rhs_calls": counts["rk.rhs_calls"] * per,
        "rk.rhs_rows": counts["rk.rhs_rows"] * per,
        "rk.self_s": layer_self["rk"] * per,
        "transform.simulate_transformed_s":
            incl["transform.simulate_transformed"] * per,
        "transform.simulate_original_s": incl["transform.simulate_original"] * per,
        "transform.map_back_s": incl["transform.map_back"] * per,
        "transform.path_steps_simulated": simulated * per,
        # Nothing simulated means nothing was simulated in vain.
        "transform.useful_ratio":
            requested_path_steps / simulated if simulated else 1.0,
        "models.drift_calls": counts["models.drift_calls"] * per,
        "models.drift_rows": counts["models.drift_rows"] * per,
        "models.drift_s": incl["models.drift"] * per,
        "models.check_assumptions_s": check_s / checks if checks else 0.0,
        "noise.blocks": (calls["noise.normal_block"]
                         + calls["noise.rademacher_block"]) * per,
        "noise.s": (incl["noise.normal_block"]
                    + incl["noise.rademacher_block"]) * per,
        "chain.transform_chain_s": incl["chain.transform_chain"] * per,
        "chain.simulate_chain_s": incl["chain.simulate_chain"] * per,
        "chain.drift_calls": counts["chain.drift_calls"] * per,
        "chain.invert_s": incl["chain.invert_broken_line"] * per,
        "parallel.chunks": counts["parallel.chunks"] * per,
        "parallel.chunk_s_max": maxima["parallel.chunk_s_max"],
        "parallel.chunk_s_sum": counts["parallel.chunk_s_sum"] * per,
        "parallel.speedup": speedup,
        "diagnostics.scan_s": incl["diagnostics.boundedness_scan"] * per,
        "diagnostics.scan_points": counts["diagnostics.scan_points"] * per,
        "cli.self_s": self_s["cli.main"] * per,
        "cli.bytes_written": counts["cli.bytes_written"] * per,
        "trace.overhead_pct": overhead_pct,
    }
    return values, {layer: layer_self[layer] * per for layer in LAYERS}


def layer_table(workload: str, values: dict, layer_self: dict,
                op_s: float) -> str:
    """Plain-text per-layer table: self time per layer with its share of
    the traced operation time, then each metric with the end-to-end
    metric it should move."""
    lines = [f"# per-layer table, workload {workload} (op = "
             + ("one request" if workload == "point-queries" else "one CLI job")
             + f"; traced op time {op_s:.6g} s; work on worker threads can "
             "take the shares past 100%)",
             f"{'layer':<12} {'self_s/op':>12} {'share':>7}"]
    for layer in LAYERS:
        share = layer_self[layer] / op_s if op_s > 0 else 0.0
        lines.append(f"{layer:<12} {layer_self[layer]:>12.6g} {share:>7.1%}")
    lines.append("")
    lines.append(f"{'metric':<34} {'value':>14} {'unit':<9} "
                 f"{'moves':<32} measured on")
    for name, unit, _, moves, where in LAYER_METRICS:
        lines.append(f"{name:<34} {values[name]:>14.6g} {unit:<9} "
                     f"{moves:<32} {where}")
    return "\n".join(lines) + "\n"
