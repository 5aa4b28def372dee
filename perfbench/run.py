#!/usr/bin/env python3
"""detrend-sde benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports detrend_sde from
./src and exits with code 2, printing no result, when that is missing.
Workloads: sde-ensemble, chain-detrend, point-queries (see
perfbench/README.md).  The seed alone determines every input.

Times are wall-clock seconds scaled to a reference CPU speed: every
50 ms a signal handler on the measuring thread times a tiny fixed numpy
kernel that does not touch detrend_sde, and each job's time (minus the
handler's) is multiplied by CAL_REF_S over the kernel's mean time
during the job.  On a shared machine whose speed swings by up to 1.8x
from second to second this is what keeps runs comparable; the raw
wall-clock median is printed alongside.

--trace 0 measures for S seconds and prints the end-to-end metrics.
--trace 1 measures S/2 seconds untraced, then S/2 seconds with the
span tracer installed, and prints the per-layer metrics; it writes the
spans and the per-layer table under .perfbench_out/.  Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("sde-ensemble", "chain-detrend", "point-queries")
# Set-up is timed in this many fresh interpreters besides the measuring
# one; setup_s is the median of all of them.
SETUP_PROBES = 3
# BLAS and OpenMP pools stay at one thread; the only threads the
# benchmark asks for are DETREND_SDE_THREADS on chain-detrend.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Calibration kernel time that defines the reference speed (about its
# time on a 2-vCPU x86-64 VM at full speed); fixed, so that scaled
# times of two commits compare directly.
CAL_REF_S = 1e-4
SAMPLE_PERIOD_S = 0.05
MIN_SAMPLES = 20

# End-to-end metrics.  An "op" is one CLI job on sde-ensemble and
# chain-detrend and one request on point-queries; a "job" is one CLI
# job, or one session of 16 requests on point-queries.
END_TO_END = (
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("path_steps_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _kernel(np, a) -> float:
    """A fixed mix of interpreter and small-numpy work, like the
    workloads' inner loops, that does not touch detrend_sde."""
    t0 = time.perf_counter()
    for _ in range(8):
        b = np.einsum("bij,bjk->bik", a, a) + a
        float(np.sin(b).sum())
    return time.perf_counter() - t0


def calibration_seconds() -> float:
    """Median of 21 kernel timings back to back."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 64).reshape(16, 2, 2)
    return statistics.median(_kernel(np, a) for _ in range(21))


class SpeedSampler:
    """Times the kernel every SAMPLE_PERIOD_S from a SIGALRM handler,
    which runs on the main thread between the bytecodes of whatever
    operation is in progress, so the samples see the speed the
    operation itself gets."""

    def __init__(self):
        # Resolved here: the handler must not import while it may be
        # interrupting an import.
        import numpy
        self._np = numpy
        self._a = numpy.linspace(0.0, 1.0, 64).reshape(16, 2, 2)
        self.samples = []  # (start, seconds)

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, _kernel(self._np, self._a)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def handler_seconds(self, t0: float, t1: float) -> float:
        return sum(d for s, d in self.samples if t0 <= s <= t1)

    def scale(self, t0: float, t1: float) -> float:
        """CAL_REF_S over the mean kernel time during [t0, t1], the
        window widened to span at least MIN_SAMPLES sample periods so
        that a short job's scale is not one or two noisy samples."""
        pad = max(2 * SAMPLE_PERIOD_S,
                  (MIN_SAMPLES * SAMPLE_PERIOD_S - (t1 - t0)) / 2)
        near = [d for s, d in self.samples if t0 - pad <= s <= t1 + pad]
        if not near:
            near = [min(self.samples, key=lambda sd: abs(sd[0] - t0))[1]]
        return CAL_REF_S / statistics.fmean(near)


def set_up(args, workdir):
    """Import detrend_sde, build the workload's models, transforms and
    partitions, run one warm-up operation; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    seconds = time.perf_counter() - t0
    return wl, seconds * CAL_REF_S / calibration_seconds()


def probe_setup(args) -> float:
    """Set-up time in a fresh interpreter (the import is only cold once
    per process)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds: float, first: int, tracer=None):
    """Run operations back to back until `seconds` have passed and the
    last job is complete.  Returns (OpResults, mean scale to reference
    speed); each result's ref_seconds is its time, less the sampler's,
    times the scale measured during its job."""
    results = []
    sampler = SpeedSampler()
    i = first
    deadline = time.perf_counter() + seconds
    with sampler:
        while time.perf_counter() < deadline or (i - first) % wl.ops_per_job \
                or not results:
            results.append(_run_op(wl, i, tracer))
            i += 1
    k = wl.ops_per_job
    scales = []
    for j in range(0, len(results), k):
        job = results[j:j + k]
        scale = sampler.scale(job[0].start, job[-1].start + job[-1].seconds)
        scales.append(scale)
        for r in job:
            own = r.seconds - sampler.handler_seconds(r.start, r.start + r.seconds)
            r.ref_seconds = own * scale
    return results, statistics.fmean(scales)


def _run_op(wl, i: int, tracer):
    """Operation i; an exception is a failed operation, not a crash."""
    from workloads import OpResult
    if tracer is not None:
        tracer.request = i
    t0 = time.perf_counter()
    try:
        r = wl.run_op(i, tracer)
    except Exception as exc:
        traceback.print_exc()
        r = OpResult(time.perf_counter() - t0,
                     [f"{type(exc).__name__}: {exc}"], start=t0)
    if r.problems:
        print(f"op {i} failed: {'; '.join(r.problems)}", file=sys.stderr)
    if tracer is not None:
        tracer.count("cli.bytes_written", r.bytes_written)
    return r


def job_times(wl, results, attr: str = "ref_seconds") -> list:
    k = wl.ops_per_job
    lat = [getattr(r, attr) for r in results]
    return [sum(lat[j:j + k]) for j in range(0, len(lat) - k + 1, k)]


def end_to_end(wl, results, setup_samples) -> dict:
    lat = [r.ref_seconds for r in results]
    job_p50 = statistics.median(job_times(wl, results))
    return {
        "setup_s": statistics.median(setup_samples),
        "job_s_p50": job_p50,
        "path_steps_per_s": wl.path_steps_per_job / job_p50,
        "query_ms_p50": statistics.median(lat) * 1e3,
        "query_ms_p99": percentile(lat, 99) * 1e3,
        "queries_per_s": wl.ops_per_job / job_p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parallel_speedup(wl, reps: int = 2) -> float:
    """Serial time over worker-thread time of the workload's threaded
    part, alternating which goes first, tracer not installed."""
    import workloads
    from detrend_sde import parallel
    fn = wl.parallel_probe()
    threads = workloads.worker_threads()
    times = {1: [], threads: []} if threads > 1 else {1: []}
    saved = os.environ.get(parallel.ENV_THREADS)
    try:
        for r in range(reps):
            order = sorted(times, reverse=bool(r % 2))
            for n in order:
                os.environ[parallel.ENV_THREADS] = str(n)
                t0 = time.perf_counter()
                fn()
                times[n].append(time.perf_counter() - t0)
    finally:
        if saved is None:
            os.environ.pop(parallel.ENV_THREADS, None)
        else:
            os.environ[parallel.ENV_THREADS] = saved
    return statistics.median(times[1]) / statistics.median(times[threads])


def environment(wl) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "DETREND_SDE_THREADS": wl.threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "pinned": PINNED_ENV}


def run_untraced(args, workdir) -> dict:
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    wl, own = set_up(args, workdir)
    setup_samples.append(own)
    print("# env " + json.dumps(environment(wl)))
    results, scale = measure(wl, args.seconds, 0)
    values = end_to_end(wl, results, setup_samples)
    failed = sum(1 for r in results if r.problems)
    raw = job_times(wl, results, "seconds")
    print(f"# {args.workload}: {len(results)} ops, {len(raw)} jobs, "
          f"{len(setup_samples)} set-up samples, "
          f"failed_ratio {failed / len(results):.6g}")
    print(f"# raw wall clock: job_s_p50 {statistics.median(raw):.6g} s, "
          f"mean scale to reference speed {scale:.4g}")
    for name, unit in END_TO_END:
        print(f"{name:<18} {values[name]:>14.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def run_traced(args, workdir) -> dict:
    import tracing
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    setup_tracer.active = True
    try:
        wl, _ = set_up(args, workdir)
    finally:
        setup_tracer.active = False
        setup_tracer.uninstall()
    print("# env " + json.dumps(environment(wl)))
    half = args.seconds / 2.0
    untraced, _ = measure(wl, half, 0)
    tracer = tracing.Tracer()
    tracer.install(drifts=wl.drifts())
    try:
        traced, scale = measure(wl, half, len(untraced), tracer)
    finally:
        tracer.uninstall()
    speedup = parallel_speedup(wl)

    base = statistics.median(job_times(wl, untraced))
    with_trace = statistics.median(job_times(wl, traced))
    overhead_pct = (with_trace / base - 1.0) * 100.0
    n_jobs = len(traced) // wl.ops_per_job
    values, layer_self = tracing.layer_metrics(
        tracer, setup_tracer, len(traced),
        requested_path_steps=wl.path_steps_per_job * n_jobs,
        speedup=speedup, overhead_pct=overhead_pct,
        time_scale=scale)
    op_s = statistics.fmean(r.ref_seconds for r in traced)
    table = tracing.layer_table(args.workload, values, layer_self, op_s)

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    n_spans = tracer.write_spans(os.path.join(outdir, "spans.jsonl"))
    setup_tracer.write_spans(os.path.join(outdir, "setup_spans.jsonl"))
    with open(os.path.join(outdir, "layers.txt"), "w") as fh:
        fh.write(table)
    with open(os.path.join(outdir, "layers.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_ops": len(traced), "op_s": op_s,
                   "layer_self_s_per_op": layer_self,
                   "metrics": values}, fh, indent=2)
    print(table, end="")
    print(f"# tracing overhead: job_s_p50 {base:.6g} s untraced, "
          f"{with_trace:.6g} s traced ({overhead_pct:+.1f}%)")
    print(f"# {n_spans} spans and the per-layer table written to "
          f"{os.path.relpath(outdir, ROOT)}/")
    ops = untraced + traced
    failed = sum(1 for r in ops if r.problems)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, *_ in tracing.LAYER_METRICS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "detrend_sde", "__init__.py")):
        print(f"perfbench: no detrend_sde sources under {SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_probe:
            _, seconds = set_up(args, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = (run_traced if args.trace else run_untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still has its directory there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
