#!/usr/bin/env python3
"""Benchmark runner for leavitt.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload arith --seed 1 --seconds 38 --trace 0

One process runs one workload as a closed loop with a single caller: a
fixed job list, built from the seed, is run back to back, pass after pass,
until the time is up.  The first pass is checked job by job against
independent answers; every later pass must reproduce it.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's end-to-end ones; with
``--trace 1`` they are its per-layer ones.  measure.py says how each is
taken, and how timings are scaled to a fixed reference job so that the
speed of a noisy host cancels.

Set-up (``setup_s``) runs from the start of this script, after interpreter
start-up, to the first timed job: the ``leavitt`` import, graph and ideal
parsing, field and algebra construction and seeded input generation.  Only
what set-up needs is imported before it ends; the harness's own measuring
code loads after it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")


def import_leavitt():
    """Import leavitt from this checkout's src/, and from nowhere else."""
    init = os.path.join(SRC, "leavitt", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} is missing; run from the root of a leavitt checkout")
    sys.path.insert(0, SRC)
    import leavitt
    import leavitt.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(leavitt.__file__)) != os.path.dirname(init):
        raise SystemExit(f"error: imported leavitt from {leavitt.__file__}, not {init}")
    return leavitt


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    leavitt = import_leavitt()
    workload = WORKLOADS[args.workload](leavitt, args.seed, DATA)
    setup_s = time.perf_counter() - _T0

    import measure  # after set-up on purpose, so it is not counted in it

    if args.setup_only:
        print(repr(measure.scaled_setup(setup_s)))
        return 0
    return measure.run(args, leavitt, workload, setup_s)


if __name__ == "__main__":
    sys.exit(main())
