#!/usr/bin/env python3
"""Runs one workload of the layered end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the l1hh library, l1hh_serve,
l1hh_replica and the benchmark's load generator (perfbench_loadgen) from
source in Release mode into $CARGO_TARGET_DIR (default .bench_build), then
runs the load generator.  Its last line of standard output is the JSON
result.  Workloads, metrics and the layer map: perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest_paper", "query_window", "fanin_replica")
TARGETS = ("perfbench_loadgen", "l1hh_serve", "l1hh_replica")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    # Configure every time: it is cheap when nothing changed, and it keeps
    # the target list current when the build files did change.
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--parallel", "4",
              "--target", *TARGETS]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    # The benchmark builds the repository it sits in; without its sources
    # there is nothing to measure.
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("no %s at %s; run from the root of a checkout" % (needed, root))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)

    work_dir = os.path.join(build_dir, "perfbench-run")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [os.path.join(build_dir, "perfbench_loadgen"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--serve", os.path.join(build_dir, "l1hh_serve"),
               "--replica", os.path.join(build_dir, "l1hh_replica"),
               "--work-dir", work_dir]
    # A run measures for --seconds, then finishes its last rep, its set-up
    # probes and, when traced, the layer replay.
    timeout_s = 2 * args.seconds + 120
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        fail("the load generator did not finish within %d s" % timeout_s)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("the load generator exited with code %d" % done.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("the load generator printed no result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
