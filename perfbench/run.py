#!/usr/bin/env python3
"""Build pchls and its benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth-1k --seed 1 --seconds 20 --trace 0

The build is a release-profile dune build into .bench_build/ (the shared
dune cache is disabled so nothing is written outside the checkout). Build
output goes to stderr; stdout carries only what the benchmark prints, whose
last line is the JSON result. Any build failure exits non-zero without a
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BENCH = "perfbench/bench.exe"
PCHLS = "bin/pchls.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--build-dir", BUILD_DIR, "./" + BENCH, "./" + PCHLS],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode,
              file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", BENCH)
    argv = [exe, "--pchls", os.path.join(BUILD_DIR, "default", PCHLS),
            "--work-dir", os.path.join(BUILD_DIR, "perfbench")] + sys.argv[1:]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, argv)


if __name__ == "__main__":
    sys.exit(main())
