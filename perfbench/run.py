#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fullstack|outline-k1|daemon-edit> \
        --seed <n> --seconds <s> --trace <0|1> [--scale <x>]

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the library sources in src/ into its build directory:
$CARGO_TARGET_DIR/perfbench when that variable is set, else
.bench_build/perfbench. The build runs on every call and is incremental.
Build output goes to stderr; the benchmark's own stdout is passed through,
so its last line is the JSON result. The exit code is the benchmark's, or
non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step; on failure shows its output on stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode


def build():
    out = build_dir()
    if run_quiet(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
        return None
    if run_quiet(["cmake", "--build", out, "--target", "perfbench",
                  "-j", JOBS]) != 0:
        return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.isfile(exe) else None


def main(argv):
    exe = build()
    if exe is None:
        return 1
    sys.stdout.flush()
    proc = subprocess.run([exe] + argv, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
