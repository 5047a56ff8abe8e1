#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a vm1dp checkout:

    python3 perfbench/run.py --workload flow-congested|flow-optimize|serve-mixed \
        --seed N --seconds S --trace 0|1

The script builds perfbench/perfbench.exe, bin/vm1d.exe and
bin/vm1trace.exe with dune (build output goes to stderr), then runs the
benchmark with the given arguments. The last line of stdout is the
result object; the exit code is the benchmark's. Traced runs write
their vm1dp-trace/1 files under .perfbench/, and serve-mixed puts its
daemon's socket there. See perfbench/METRICS.md.
"""

import os
import subprocess
import sys

NEEDED = ("dune-project", "lib", "bin/vm1d.ml", "bin/vm1trace.ml", "perfbench/dune")
TARGETS = ("perfbench/perfbench.exe", "bin/vm1d.exe", "bin/vm1trace.exe")
BUILD = "_build/default"


def main(argv):
    missing = [path for path in NEEDED if not os.path.exists(path)]
    if missing:
        print("perfbench: run from the root of a vm1dp checkout (missing: %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    run = subprocess.run(
        [os.path.join(BUILD, TARGETS[0]), *argv,
         "--vm1d", os.path.join(BUILD, TARGETS[1]),
         "--vm1trace", os.path.join(BUILD, TARGETS[2]),
         "--out-dir", ".perfbench"],
        check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
