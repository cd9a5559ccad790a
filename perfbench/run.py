#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload prepare|serve|mincostflow|dist \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The build goes through dune with
its shared cache off, so nothing is written outside the checkout.  The
last line of standard output is the result as one JSON object.  A failed
build exits with the build's status and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FileNotFoundError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(127)
