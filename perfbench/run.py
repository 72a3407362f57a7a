#!/usr/bin/env python3
"""Builds hive_perfbench from the checkout's sources and runs it.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload campaign|storm|soak --seed N \\
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The build tree is .bench_build/hive_perfbench/ at the repository root. The
first run configures and builds it (about a minute on 4 cores); later runs
only bring it up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "hive_perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time costs a fraction of a second and recovers from a
    # configure step that failed or was interrupted earlier.
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = os.path.join(build, "hive_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so the benchmark is the only process left running.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
