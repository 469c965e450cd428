#!/usr/bin/env python3
"""Build and run the reconstruction benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload radial-256 --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe from source with dune (release profile, no
shared dune cache, so nothing is written outside the checkout), then runs
it with the given arguments. The benchmark's standard output is passed
through; its last line is the JSON result. The exit code is the
benchmark's, or 2 when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
