#!/usr/bin/env python3
"""Builds the AGENP benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark program into .bench_build/perfbench (a few
minutes); later runs rebuild incrementally. The self-tests of the
benchmark's arithmetic run before every workload. The workload runs in its
own process, so process-wide registries (symbol table, metrics, lock
statistics) never carry over from another workload.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 only
when the build, the self-tests and the workload all succeeded and every
output checked out. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("serve_hot", "serve_cold")
# A workload run takes its --seconds plus set-up, learning and checks; a run
# that takes this much longer than --seconds has hung.
RUN_MARGIN_S = 150


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds agenp_bench and agenp_bench_selftest.

    The configure step runs every time: the library takes the commit it
    stamps into obs/build from `git describe` at configure time, so a build
    tree configured at an older commit would stamp that one. Both steps are
    incremental.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "agenp_bench", "agenp_bench_selftest",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    selftest = subprocess.run([os.path.join(BUILD, "agenp_bench_selftest")], stdout=sys.stderr,
                              stderr=sys.stderr)
    if selftest.returncode != 0:
        log("self-tests of the benchmark arithmetic failed")
        return 2

    print("run " + json.dumps({"git_commit": git_commit(), "workload": args.workload,
                               "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace}), flush=True)
    command = [os.path.join(BUILD, "agenp_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout:g} s")
        return 2

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or result is None:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} exited with status {proc.returncode} and no result")
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        log(f"{args.workload}: wrong output (see MISMATCH lines above)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
