#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures perfbench/ (the engine libraries
from src/ plus the benchmark driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, builds it (a no-op when
nothing changed), runs the helper self-test, then one run of the workload.
The driver's output is passed through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, printing no
result, when the build, the self-test or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_mem", "cold_disk", "sharded_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/CMakeLists.txt) not found under " + root)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    build(root, build_dir)
    os.makedirs(work_dir, exist_ok=True)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=root, stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("helper self-test failed")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work_dir", work_dir]
    try:
        # On timeout subprocess.run kills the child and waits for it.
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith(
            '{"correct"'):
        sys.stderr.write(run.stdout)
        fail("run failed with exit code %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
