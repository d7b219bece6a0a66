#!/usr/bin/env python3
"""The benchmark's own test: its work counters are deterministic.

For every workload, two traced runs on one seed must report identical
count-type (and ratio) per-layer metrics and pass every correctness
check; then one run on a second seed, never used while the workloads were
sized, must pass every check too.  Run from the root of a checkout:

    python3 perfbench/selftest.py [--workload NAME]... [--seconds S]
"""

import argparse
import json
import subprocess
import sys

SEED = 7
FRESH_SEED = 4242  # not used while the workloads were sized
DETERMINISTIC_UNITS = ("count", "ratio")


def run(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counters(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in DETERMINISTIC_UNITS}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()
    workloads = args.workload or ["table2", "faultsim", "serve"]
    failures = []
    for w in workloads:
        first, second = run(w, SEED, args.seconds), run(w, SEED, args.seconds)
        fresh = run(w, FRESH_SEED, args.seconds)
        for label, r in (("first", first), ("second", second), ("fresh", fresh)):
            if not r["correct"] or r["failed"] != 0:
                failures.append(f"{w}: {label} run failed {r['failed']} of "
                                f"{r['attempted']} checks")
        a, b = counters(first), counters(second)
        differ = sorted(k for k in a if a[k] != b.get(k))
        if differ:
            failures.append(f"{w}: counters differ between runs: {differ}")
        print(f"{w}: {len(a)} counters identical on seed {SEED}"
              if not differ else f"{w}: counters differ: {differ}")
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
