#!/usr/bin/env python3
"""Run one workload several times and judge its steadiness.

Usage (from the repository root):

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds <s>]

Run i uses seed i + 1, untraced, at the workload's own scale. For every metric the script prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)), and the
spread (Q3 - Q1) / median. End-to-end metrics are set against their bound
from BENCHMARK.json: a spread at or above a third of the bound is flagged
"wide" (setup_s excepted, which is judged on its median only). It also prints
the failed share of attempted operations and each run's wall time, and
exits non-zero when a run fails or reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    bench = load_bench()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, shares, ok = {}, set(), True
    for i in range(args.runs):
        seed = i + 1
        result, wall = run_once(args.workload, seed, args.seconds)
        if result is None:
            print("run %d (seed %d): FAILED to produce a result" % (i, seed))
            ok = False
            continue
        shares.add((result["failed"], result["attempted"]))
        if result["failed"] or not result["correct"]:
            ok = False
        print("run %d (seed %d): %.1f s wall, attempted %d, failed %d"
              % (i, seed, wall, result["attempted"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("\n%-28s %14s %14s %14s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "ok" if spread < bound / 3 else "wide"
        print("%-28s %14.6g %14.6g %14.6g %7.2f%% %8s %s" %
              (name, med, q1, q3, 100 * spread,
               "" if bound is None else "%.0f%%" % (100 * bound), verdict))
    fractions = {f / a if a else 0 for f, a in shares}
    print("\nfailed share of attempted: %s" % sorted(fractions))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
