#!/usr/bin/env python3
"""Builds and runs the eval-grid benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload interp_grid --seed 1 --seconds 20 --trace 0

Configures perfbench/ (which builds the library sources in src/) into
.bench_build/perfbench, builds the perfbench binary, runs it, and relays its
output. The binary's last line is the result JSON; this script checks that its
metric names and units are exactly the ones BENCHMARK.json lists for the
mode (end_to_end for --trace 0, per_layer for --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(command, timeout):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/)")
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    run_step(["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", jobs], 850)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(BUILD, "scratch")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within 170 s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"perfbench exited with {done.returncode}")

    result = json.loads(lines[-1])
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, unexpected "
             f"{sorted(set(got) - set(want))}, or units differ")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
