#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from any directory: paths resolve against the checkout this file sits
in. The first run configures and builds perfbench/ (the spatter library
sources plus the benchmark, Release) under $CARGO_TARGET_DIR or
.bench_build/; later runs only check the build is current. Build output
goes to standard error, so standard output carries only the benchmark's
log and, as its last line, the result object. That object keeps exactly
the metrics BENCHMARK.json lists for the mode: end_to_end ones untraced,
per_layer ones traced. A listed metric the benchmark did not report is a
failed run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message, code=3):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(build_dir, "spatter_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--trace",
               str(args.trace), "--trace-dir", trace_dir]
    for flag, value in (("--seed", args.seed), ("--seconds", args.seconds)):
        if value is not None:
            command += [flag, str(value)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(run.stdout)
        fail(f"the benchmark exited with {run.returncode} and no result",
             code=run.returncode or 1)
    for line in lines[:-1]:
        print(line)

    code = run.returncode
    metrics = {}
    for m in wanted:
        if m["name"] in result["metrics"]:
            metrics[m["name"]] = result["metrics"][m["name"]]
        else:
            print(f"MISSING {m['name']}: not reported by the benchmark")
            code = code or 1
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
