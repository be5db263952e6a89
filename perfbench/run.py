#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The benchmark is the
OCaml executable perfbench/main.exe; this wrapper builds it with dune (a
no-op once built) and replaces itself with it, so the benchmark's exit
code and output are the wrapper's. See perfbench/README.md.
"""

import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a checkout of the repository" % needed)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed (dune exit code %d)" % build.returncode)
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
