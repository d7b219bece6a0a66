#!/usr/bin/env python3
"""Build and run the diagnosis benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

The benchmark is the OCaml program perfbench/main.ml, built with dune
into .bench_build/ (dune's shared cache is disabled so that nothing is
written outside the checkout).  Its standard output is passed through;
the last line is the JSON result.  The exit code is 0 only when the
program ran to its result line.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT = 850  # the first run in a fresh checkout compiles everything
RUN_TIMEOUT = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache", "disabled", "--profile", "release", TARGET,
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed (run from the root of a full checkout)")
    return os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("not the root of a checkout: dune-project or lib/ is missing")
    exe = build()
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
