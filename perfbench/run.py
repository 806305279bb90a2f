#!/usr/bin/env python3
"""Build the lifting benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search_bound --seed 20250604 --seconds 30 --trace 0

It builds perfbench/main.exe and the host-speed reference
perfbench/sensor.exe, then runs main.exe pinned to one CPU with the
arguments unchanged (see the header of perfbench/main.ml). The
benchmark's own output is the last line of
standard output; build logs go to standard error. Exits non-zero,
without printing a result, when the checkout holds no buildable
repository.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./perfbench/sensor.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # One CPU for the whole run: the epochs and the host-speed sensor then
    # share it, so the sensor reads the speed the workload ran at, and no
    # epoch migrates between CPUs mid-run.
    cpus = sorted(os.sched_getaffinity(0))
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]})).returncode


if __name__ == "__main__":
    sys.exit(main())
