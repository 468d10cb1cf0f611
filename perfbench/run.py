#!/usr/bin/env python3
"""Reseeding pipeline benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quick_cold --seed 1 --seconds 20 --trace 0

Builds perfbench/ledger.exe from source with dune, then runs one
workload in one process.  The last line of stdout is the JSON result;
see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/ledger.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found in {root}: run from a full source checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    # The shared dune cache lives outside the checkout; keep every build
    # product under _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", root, TARGET],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    exe = os.path.join(root, "_build", "default", "perfbench", "ledger.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
