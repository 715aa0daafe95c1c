#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); snapshots, Chrome traces and the last
untraced result go to .bench_out. Everything the binary prints is
passed through, so the last line of standard output is its JSON
result. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "qbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("qbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "qbench")
    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
