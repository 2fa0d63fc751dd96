#!/usr/bin/env python3
"""Quick end-to-end self-check of the benchmark at a tiny scale.

Usage (from the repository root):

    python3 perfbench/selfcheck.py

It validates BENCHMARK.json against the benchmark's fixed format, then runs
every listed workload once untraced and once traced, at scale 0.5 for one
second, and checks each result line: exactly the keys
correct/attempted/failed/metrics, no failed operation, every end-to-end
(untraced) or per-layer (traced) metric present with its declared unit and a
finite value, and no end-to-end value of 0. Last, it copies only
BENCHMARK.json and perfbench/ into a scratch directory under .bench_work/
and checks that the benchmark fails there without printing a result, as it
must when the library sources are absent.
Exits non-zero on the first problem.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = 0.5
SECONDS = 1
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fail(msg):
    print("selfcheck: FAIL: " + msg)
    sys.exit(1)


def check_spec(bench):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(bench) != keys:
        fail("BENCHMARK.json keys %s" % sorted(bench))
    cmd = bench["command"]
    if not (1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)):
        fail("command shape")
    for p in bench["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            fail("bad path %r" % p)
    if not (1 <= len(bench["paths"]) <= 16):
        fail("paths count")
    if not (isinstance(bench["run_seconds"], int)
            and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            fail("workload %r" % w)
        names.add(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            fail("end_to_end entry %r" % m)
        if not 0 < m["bound"] <= 0.25:
            fail("bound of %s" % m["name"])
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per_layer entry %r" % m)
    if not 1 <= len(bench["end_to_end"]) <= 16 \
            or not 1 <= len(bench["per_layer"]) <= 128:
        fail("metric counts")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                or m["better"] not in ("lower", "higher"):
            fail("metric %r" % m)
        if m["name"] in names:
            fail("name %s used twice" % m["name"])
        names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must have the largest bound")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
           "--trace", str(trace), "--scale", str(SCALE)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)


def check_result(line, expected, what):
    try:
        r = json.loads(line)
    except ValueError:
        fail("%s: last line is not JSON: %r" % (what, line[:200]))
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(r)))
    if r["correct"] is not True or r["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (what, r["correct"], r["failed"]))
    if not isinstance(r["attempted"], int) or r["attempted"] < 1:
        fail("%s: attempted %r" % (what, r["attempted"]))
    got = r["metrics"]
    if set(got) != set(expected):
        fail("%s: metrics differ: missing %s, extra %s"
             % (what, sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]["unit"]:
            fail("%s: metric %s is %r" % (what, name, m))
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: metric %s value %r" % (what, name, v))
        if "bound" in expected[name] and v == 0:
            fail("%s: end-to-end metric %s reads 0" % (what, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_spec(bench)
    print("selfcheck: BENCHMARK.json ok")

    for name in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m for m in bench[key]}
            what = "%s --trace %d" % (name, trace)
            proc = run(name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail("%s: exit %d" % (what, proc.returncode))
            check_result(lines[-1], expected, what)
            print("selfcheck: %s ok" % what)

    # Without the library sources the benchmark must fail without a result.
    lone = os.path.join(ROOT, ".bench_work", "selfcheck-lone")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(lone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "fullstack", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=lone, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180, env=env)
    shutil.rmtree(lone, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark without sources exited %d" % proc.returncode)
    print("selfcheck: fails without sources ok (exit %d)" % proc.returncode)
    print("selfcheck: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
