#!/usr/bin/env python3
"""Check the benchmark and the program's answers with one command.

    python3 perfbench/check.py

Every workload run uses seed 1 and lasts BENCHMARK.json's run_seconds.

1. Every README CLI example runs at its README defaults.  Where the README
   prints the output (nf and schreier), stdout must match it byte for byte;
   the module examples must exit 0.
2. Each workload runs untraced.  Every end-to-end metric is printed by name
   and unit, together with the jobs per pass and fail_frac = failed /
   attempted.
3. Each workload runs traced twice, under two PYTHONHASHSEED values.  Every
   per-layer metric of the first run is printed, and every exact count must
   agree between the two runs.

Exits 1 when anything fails, 0 otherwise.
"""

import json
import os
import re
import shlex
import subprocess
import sys

import spec
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
RUN_TIMEOUT_S = 180
SEED = 1


def readme_examples(text):
    """(argv, expected stdout or None) for each leavitt command in sh blocks."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        current = None
        for line in block.splitlines():
            if line.startswith("$ leavitt "):
                current = [shlex.split(line[len("$ leavitt "):]), []]
                examples.append(current)
            elif line.startswith("leavitt "):
                examples.append([shlex.split(line[len("leavitt "):]), None])
                current = None
            elif current is not None and current[1] is not None:
                current[1].append(line)
    return [(argv, None if out is None else "".join(l + "\n" for l in out)) for argv, out in examples]


def check_readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        examples = readme_examples(handle.read())
    env = dict(os.environ, PYTHONPATH=SRC)
    problems = []
    for argv, expected in examples:
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", *argv],
            cwd=DATA, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        line = "leavitt " + shlex.join(argv)
        if proc.returncode != 0:
            problems.append(f"{line}: exit {proc.returncode}: {proc.stderr.strip()}")
        elif expected is not None and proc.stdout != expected:
            problems.append(f"{line}: output differs from the README:\n{proc.stdout}")
        print(f"readme  {'ok  ' if proc.returncode == 0 else 'FAIL'} {line}")
    return problems, len(examples)


def run(workload, seconds, trace, hash_seed=None):
    """The result of one run.py run, and its stderr."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    bench = spec.load_benchmark(ROOT)
    seconds = bench["run_seconds"]
    problems, count = check_readme()
    print(f"readme  {count} examples, {len(problems)} failing")

    for name in WORKLOADS:
        result, stderr = run(name, seconds, 0)
        jobs = re.search(r"jobs/pass=(\d+)", stderr).group(1)
        for metric, unit in spec.metrics(bench, "end_to_end"):
            print(f"{name:10} {metric:14} {result['metrics'][metric]['value']:14.6f} {unit}")
        print(f"{name:10} {'jobs/pass':14} {jobs:>14}")
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:10} {'fail_frac':14} {fail_frac:14.6f} ratio  ({result['failed']} of {result['attempted']} jobs)")
        if not result["correct"] or fail_frac:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} jobs failed")

    timed = spec.timed(bench)
    for name in WORKLOADS:
        first, second = (run(name, seconds, 1, hash_seed)[0] for hash_seed in (1, 2))
        differ = [
            metric for metric, _ in spec.metrics(bench, "per_layer")
            if metric not in timed
            and first["metrics"][metric]["value"] != second["metrics"][metric]["value"]
        ]
        for metric, unit in spec.metrics(bench, "per_layer"):
            print(f"{name:10} {metric:36} {first['metrics'][metric]['value']:14.6f} {unit}")
        overhead = first["metrics"]["trace.overhead"]["value"]
        print(f"{name:10} trace.overhead {overhead:.3f}; exact counts "
              f"{'differ: ' + ', '.join(differ) if differ else 'identical under PYTHONHASHSEED 1 and 2'}")
        if differ:
            problems.append(f"{name}: counts differ across hash seeds: {', '.join(differ)}")
        if not (first["correct"] and second["correct"]):
            problems.append(f"{name}: a traced run failed its checks")

    for problem in problems:
        print(f"FAIL {problem}")
    print("check: " + ("FAILED" if problems else "all passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
