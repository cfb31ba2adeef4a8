#!/usr/bin/env python3
"""Builds and runs the benchmark of record for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. It configures and builds perfbench/ (the
simcard library from src/ plus the benchmark binary) into the directory named
by CARGO_TARGET_DIR, or .bench_build/ when that is unset, then runs the
binary. Every line the binary prints is passed through; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the `end_to_end` list of BENCHMARK.json, with
--trace 1 the `per_layer` list. Exits 0 when every answer was correct, 1 on a
correctness violation, and 2 when the build, set-up or run failed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None or done.returncode not in (0, 1):
        fail("%s exited %d without a result" % (args.workload,
                                                 done.returncode))

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s measured in %s, declared in %s" %
                     (name, measured[name]["unit"], unit))
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        else:
            fail("%s did not measure metric %s" % (args.workload, name))
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
