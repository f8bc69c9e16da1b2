#!/usr/bin/env python3
"""memsched benchmark entry point.

Run from the root of a memsched checkout:

  python3 perfbench/run.py --workload closed-exact --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest       # build and run the benchmark's own tests
  python3 perfbench/run.py --regen          # rewrite perfbench/data/digests.json
  python3 perfbench/run.py --reference      # rewrite perfbench/data/sampled_reference.json

It builds the simulator libraries and the perfbench driver from source into
.bench_build/ (incremental after the first build), runs one workload in one
process, checks that the metric names and units it printed are the ones
BENCHMARK.json declares, and prints the perfbench binary's JSON result as the last line
of stdout. Build output and progress go to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
DATA_DIR = os.path.join("perfbench", "data")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or not os.path.isfile(
        "CMakeLists.txt"
    ):
        fail("run from the root of a memsched checkout (no src/CMakeLists.txt here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        stdout=sys.stderr, check=True,
    )
    return os.path.join(BUILD_DIR, target)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", DATA_DIR, "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}", 3)
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared_metrics(args.trace == 1):
        fail("driver metrics differ from BENCHMARK.json", 3)
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--regen", action="store_true")
    p.add_argument("--reference", action="store_true")
    args = p.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.regen or args.reference:
        mode = "regen" if args.regen else "reference"
        cmd = [build("perfbench"), "--mode", mode, "--data", DATA_DIR, "--out", OUT_DIR]
        sys.exit(subprocess.run(cmd).returncode)
    if not args.workload:
        fail("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    main()
