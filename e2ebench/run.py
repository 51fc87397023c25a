#!/usr/bin/env python3
"""Build and run the end-to-end QUAC-TRNG benchmark.

Usage (from the root of a source checkout):

    python3 e2ebench/run.py --workload keys|bulk|inproc --seed N \
        --seconds S --trace 0|1

Builds e2ebench/ (and the library sources it compiles from src/) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs one
measurement, and passes the program's report through. The last line
of stdout is the program's JSON result. Build output goes to stderr;
a failed build, a crash or a timeout exits non-zero without a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("e2ebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["keys", "bulk", "inproc"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "e2ebench"))
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace_%s.tsv" % args.workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
    except (ValueError, IndexError):
        well_formed = False
    if not well_formed:
        # Never let a crashed run's partial output pass as a result.
        sys.stderr.write(done.stdout)
        print("e2ebench: no result (exit %d)" % done.returncode,
              file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
