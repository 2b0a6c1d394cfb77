#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe (release profile) with dune, then runs it with
the same arguments.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
