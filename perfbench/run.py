#!/usr/bin/env python3
"""One-command compiler benchmark.

    python3 perfbench/run.py --workload catalog|chains|batch-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark executable
(perfbench/main.ml and the compiler libraries it links) with dune, runs
it, echoes its output and checks that the last line is the result object.
Exits non-zero, without printing a result, when the build fails, and
non-zero after the result when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("catalog", "chains", "batch-mixed")


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: neither dune nor opam is on PATH")


def build(env):
    cmd = dune_command() + [
        "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, timeout=850)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: build failed (exit %d)" % done.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ)
    # keep every build artifact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build(env)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=170, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit("run.py: benchmark printed nothing (exit %d)"
                 % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("run.py: last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: result object has the wrong keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    ok = done.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
