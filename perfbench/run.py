#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload route|optimize|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds the gcr libraries, the gcr_serve
daemon and the benchmark driver from source into .bench_build/ (a no-op
when up to date), then runs the driver once.  The driver's last stdout line
is the result: one JSON object with "correct", "attempted", "failed" and
"metrics".  Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("route", "optimize", "serve")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark package; build logs go to stderr."""
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--server", os.path.join(BUILD, "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: driver failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed driver result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
