#!/usr/bin/env python3
"""Builds itv_bench from source and runs one workload.

Run from the repository root:

    python3 itvbench/run.py --workload prime_time --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) as a Release
CMake build of itvbench/ on top of src/. The driver's output is passed
through; the last line printed is one JSON object holding the end-to-end
metrics BENCHMARK.json lists (or the per-layer ones with --trace 1). The exit
status is 0 only when the run completed and every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no src/ here; run from the repository root")
    binary_dir = os.path.join(build_dir, "itvbench")
    os.makedirs(binary_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "itvbench", "-B", binary_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", binary_dir, "--target", "itv_bench",
                      "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "itv_bench")


def wanted_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "trace")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("itv_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("itv_bench printed nothing (exit %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail("itv_bench's last line is not JSON (exit %d)" % done.returncode)

    wanted = wanted_metrics(args.trace)
    if wanted is not None:
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            fail("itv_bench did not report: " + ", ".join(missing))
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps(result))
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
