"""Passes, answer checks and metrics of one benchmark run.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is the
median over this process and fresh set-up-only processes on the same seed,
each scaled by reference runs made right after its set-up.
Every job of the fixed job list runs once per pass, and a job's time is the
fastest of its passes: ``wall_s`` is the sum of those times over the job
list, ``job_p50_ms`` and ``job_p90_ms`` their median and 90th percentile.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones.  A span's self time is the fastest of the traced
passes; counts come from the first traced pass.

This kind of host is noisy: a fixed pure-Python loop of 3M iterations took
0.44-0.99 s across processes, and process time tracked wall time, so the
noise is the speed of the CPU itself.  It comes in bursts of milliseconds
and in slow phases of seconds to minutes, and it only ever adds time.  So
the fastest of several passes is taken, not their median: a burst that
slows one pass of a job does not reach the others.  A slow phase that
covers the whole run is taken out by a fixed reference job, pure Python
that allocates tuples and Fractions and hashes them into dicts as the
workloads do.  It runs before the first job and then between jobs after
every REF_EVERY_S seconds of jobs, and every timing of the run is scaled by
REF_SECONDS over the REF_QUANTILE quantile of the reference times: it is
the time on a host where that quantile is REF_SECONDS.  On a 2-vCPU VM,
over six runs of each workload, timings scaled that way spread a half to a
seventh as much as unscaled ones, and mostly less than timings scaled by
the fastest or the median reference time; a Fraction elimination, a GF(p)
elimination or lookups in a large dict did no better as the reference.
The reference is the benchmark's own code, so a change to leavitt moves
only the timings, not the scale.  ``host.calib_ms`` is the median reference time of
a traced run, so that a reader can tell a slow host from a slow change; it
is not gated.
"""

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spec
from tracer import Tracer, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is repeated in fresh processes and reported as a median.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
# The reference job's size, the quantile of its times that timings are
# scaled by, and the time that quantile is scaled to: about what it is on a
# 2-vCPU VM outside its slow phases.
REF_KEYS = 3_000
REF_QUANTILE = 0.1
REF_SECONDS = 0.009
# Reference runs right after each set-up, which scale that set-up.
SETUP_REFS = 10
# Seconds of jobs between two runs of the reference, so that it samples
# the host's speed often over the whole run.
REF_EVERY_S = 0.1


class JobError:
    """The result of a job that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def reference():
    """Seconds for the fixed reference job."""
    t = time.perf_counter()
    sums = {}
    for i in range(REF_KEYS):
        key = (i % 97, (i * 7) % 89)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 5 + 1)
    sorted(sums.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return time.perf_counter() - t


def low(times):
    """The REF_QUANTILE quantile of reference times."""
    return sorted(times)[int(len(times) * REF_QUANTILE)]


def scaled_setup(setup_s):
    """setup_s scaled by reference runs made right after it."""
    return setup_s * REF_SECONDS / low([reference() for _ in range(SETUP_REFS)])


def child_setup(args):
    """Scaled set-up seconds measured by a fresh process on the same seed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs passes of one workload and keeps the tally of failed jobs."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        # job_times[k] holds job k's seconds, one per pass.
        self.job_times = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.refs = [reference()]

    def scale(self):
        """The factor that scales this run's timings to the reference."""
        return REF_SECONDS / low(self.refs)

    def run_pass(self, jobs):
        """Run every job once, with the reference job between jobs whenever
        REF_EVERY_S seconds of jobs have run; returns results, job seconds."""
        gc.collect()
        clock = time.perf_counter
        results, latencies = [], []
        since = 0.0
        for job in jobs:
            t = clock()
            try:
                result = job()
            except Exception as exc:  # a failing job is counted, not fatal
                result = JobError(exc)
            latencies.append(clock() - t)
            results.append(result)
            since += latencies[-1]
            if since >= REF_EVERY_S:
                self.refs.append(reference())
                since = 0.0
        return results, latencies

    def one_pass(self):
        """Pass seconds of one pass."""
        results, latencies = self.run_pass(self.workload.make_jobs())
        if self.job_times is None:
            self.job_times = [[] for _ in latencies]
        for times, t in zip(self.job_times, latencies):
            times.append(t)
        if self.first is None:
            self.first = results
            try:
                verdicts = self.workload.check(
                    [None if isinstance(r, JobError) else r for r in results]
                )
            except Exception as exc:  # e.g. a check tripping over a failed job
                verdicts = [f"check raised {type(exc).__name__}: {exc}"] * len(results)
            reasons = [r.text if isinstance(r, JobError) else v for r, v in zip(results, verdicts)]
        else:
            reasons = [
                None
                if not isinstance(a, JobError) and not isinstance(b, JobError) and self.workload.same(a, b)
                else "differs from the first pass"
                for a, b in zip(self.first, results)
            ]
        reasons = [r for r in reasons if r is not None]
        self.reasons += reasons
        self.attempted += len(results)
        self.failed += len(reasons)
        return sum(latencies)

    def passes_until(self, deadline):
        """Passes until the next one would overrun the deadline; at least
        one.  Returns the seconds of each pass."""
        walls, spans = [], []
        while True:
            start = time.perf_counter()
            walls.append(self.one_pass())
            spans.append(time.perf_counter() - start)
            # The first pass's span holds its answer checks too.
            if time.perf_counter() + max(spans[1:] or spans) > deadline:
                return walls


def end_to_end(runner, setups, deadline):
    walls = runner.passes_until(deadline)
    scale = runner.scale()
    best = [min(times) for times in runner.job_times]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best) * scale,
        "job_p50_ms": statistics.median(best) * scale * 1000.0,
        "job_p90_ms": statistics.quantiles(best, n=10)[8] * scale * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# passes={len(walls)} jobs/pass={len(best)} scale={scale:.3f} "
          f"walls={' '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
    return values


def per_layer(bench, runner, leavitt, start, deadline):
    plain = runner.passes_until(start + (deadline - start) / 2)
    tracer = Tracer()
    instrument(leavitt, tracer)
    traced, snapshots, spans = [], [], []
    while True:
        tracer.reset()
        t = time.perf_counter()
        wall = runner.one_pass()
        spans.append(time.perf_counter() - t)
        traced.append(wall)
        snapshots.append(spec.layer_values(bench, tracer))
        if time.perf_counter() + max(spans) > deadline:
            break
    values = {}
    scale = runner.scale()
    for name, _ in spec.metrics(bench, "per_layer"):
        if name.endswith(".s"):
            values[name] = min(s[name] for s in snapshots) * scale
        elif name in snapshots[0]:
            values[name] = snapshots[0][name]
    values["trace.overhead"] = min(traced) / min(plain)
    values["host.calib_ms"] = statistics.median(runner.refs) * 1000.0
    print(f"# untraced passes={len(plain)} traced passes={len(traced)}", file=sys.stderr)
    return values


def run(args, leavitt, workload, setup_s):
    """Measure a workload whose set-up took setup_s; print the result line."""
    bench = spec.load_benchmark(ROOT)
    setups = [scaled_setup(setup_s)]
    if not args.trace:
        setups += [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    runner = Runner(workload)
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.trace:
        values = per_layer(bench, runner, leavitt, start, deadline)
    else:
        values = end_to_end(runner, setups, deadline)
    print(f"# reference ms: min {min(runner.refs) * 1000:.2f} median {statistics.median(runner.refs) * 1000:.2f} "
          f"of {len(runner.refs)}", file=sys.stderr)
    for reason in runner.reasons[:20]:
        print(f"# failed: {reason}", file=sys.stderr)

    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec.metrics(bench, kind)},
    }
    print(json.dumps(result))
    return 0
