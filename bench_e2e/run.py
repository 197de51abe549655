#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

Run from the root of a source checkout:

    python3 bench_e2e/run.py --workload amd48-stw --seed 1 --seconds 60 --trace 0

The benchmark is built with dune into .bench_build/ and then replaces
this process, so its exit code and output are the benchmark's own.
Exits 2 without a result when the checkout has no simulator sources or
the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no simulator sources here (dune-project and lib/ "
              "missing); run from the root of a source checkout",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    target = "./" + here + "/main.exe"
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, target],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", here, "main.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
