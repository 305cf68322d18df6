"""Metric names and units, read from BENCHMARK.json, and how per-layer
values come from a trace.

BENCHMARK.json is the one list of metrics.  A per-layer name ending in
``.s`` is the self time of the span named by the rest of it; every other
per-layer value is an exact count or a ratio of counts, except the run-level
``trace.overhead`` and ``host.calib_ms``.

What each layer should move: ``algebra`` wall_s and job_p50_ms on arith;
``digraph`` and the ``schreier`` build side wall_s on staircase, the
``schreier`` query side job_p50_ms and job_p90_ms there; ``representations``,
``probes``, ``division`` and ``cli`` wall_s on modules (``probes.endo`` a
little on staircase too).
"""

import json
import os

# Run-level per-layer metrics: timings that are not spans.
RUN_LEVEL = ("trace.overhead", "host.calib_ms")


def load_benchmark(root):
    """The parsed BENCHMARK.json at the root of a checkout."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metrics(bench, kind):
    """(name, unit) of every metric of kind "end_to_end" or "per_layer"."""
    return [(m["name"], m["unit"]) for m in bench[kind]]


def timed(bench):
    """Per-layer metrics that are timings; all others must repeat exactly."""
    return {name for name, _ in metrics(bench, "per_layer") if name.endswith(".s")} | set(RUN_LEVEL)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(bench, tracer):
    """Every per-layer value of one traced pass, run-level ones excepted."""
    counts = tracer.counts
    values = {}
    for name, unit in metrics(bench, "per_layer"):
        if name.endswith(".s"):
            span = name[: -len(".s")]
            values[name] = tracer.self_s.get(span, 0.0)
            values[span + ".calls"] = tracer.calls.get(span, 0)
        elif unit == "count" and name not in values:
            values[name] = counts.get(name, 0)
    values["schreier.insert_yield"] = _ratio(counts["schreier.rows"], counts["schreier.candidates"])
    values["schreier.membership.in_ratio"] = _ratio(
        counts["schreier.membership.in"], counts["schreier.membership.calls"]
    )
    values["probes.echelon.insert_yield"] = _ratio(
        counts["probes.echelon.pivots"], counts["probes.echelon.insert.calls"]
    )
    return values
