#!/usr/bin/env python3
"""A/B throughput comparison of the working tree against a base commit.

    python3 bench/perf_ab.py --workload chains --base HEAD~ --pairs 6 \
        --seconds 10 --seed 7

Run from the root of a git checkout (`make perf-ab` does).  Clones the
base commit into ${TMPDIR:-/tmp}/lslp-ab, builds perfbench/main.exe there
and in the working tree, then runs the two executables alternately — the
base first in even pairs, the working tree first in odd ones, so slow
drift of the host cancels — and prints each pair and the medians of
throughput, p50/p90 latency and peak heap, the base's throughput
quartiles, the pairs the working tree won, and each side's correct and
failed counts.  Report-only: wall-clock numbers are host noise, so nothing
here gates a build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("catalog", "chains", "batch-mixed")
METRICS = (  # (result key, column label, decimals)
    ("throughput_per_s", "thr/s", 1),
    ("latency_us_p50", "p50 us", 1),
    ("latency_us_p90", "p90 us", 1),
    ("peak_heap_mb", "heap MB", 3),
)


def cells(base, new):
    return "".join("%13.*f %13.*f" % (d, base[name], d, new[name])
                   for name, _, d in METRICS)


def git(*args, cwd="."):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perf_ab: neither dune nor opam is on PATH")


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        dune() + ["build", "--root", root, "--display", "quiet",
                  "./perfbench/main.exe"], cwd=root, env=env)
    if done.returncode != 0:
        sys.exit("perf_ab: build failed in %s" % root)
    return os.path.join(root, EXE)


def run(exe, args):
    done = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds * 10 + 120)
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit("perf_ab: %s printed nothing" % exe)
    result = json.loads(lines[-1])
    values = {name: result["metrics"][name]["value"]
              for name, _, _ in METRICS}
    return values, result["correct"], result["failed"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="chains", choices=WORKLOADS)
    ap.add_argument("--base", default="HEAD~")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    sha = git("rev-parse", "--verify", args.base + "^{commit}", cwd=root)
    base_dir = os.path.join(os.environ.get("TMPDIR", "/tmp"), "lslp-ab")
    shutil.rmtree(base_dir, ignore_errors=True)
    git("clone", "--quiet", "--no-checkout", root, base_dir)
    git("checkout", "--quiet", sha, cwd=base_dir)
    exes = {"base": build(base_dir), "new": build(root)}

    print("perf-ab: %s seed %d, %d pair(s) x %gs, base %s (%s) vs working "
          "tree" % (args.workload, args.seed, args.pairs, args.seconds,
                    args.base, sha[:10]))
    header = "pair  first " + "".join(
        "%13s %13s" % ("base " + label, "new " + label)
        for _, label, _ in METRICS)
    print(header)
    runs = {"base": [], "new": []}
    checks = {"base": [0, 0], "new": [0, 0]}
    won = 0
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        got = {}
        for side in order:
            values, correct, failed = run(exes[side], args)
            got[side] = values
            runs[side].append(values)
            checks[side][0] += 1 if correct else 0
            checks[side][1] += failed
        if got["new"]["throughput_per_s"] > got["base"]["throughput_per_s"]:
            won += 1
        print("%4d  %-5s " % (pair + 1, order[0])
              + cells(got["base"], got["new"]))
    medians = {side: {name: statistics.median(r[name] for r in runs[side])
                      for name, _, _ in METRICS}
               for side in runs}
    print("median      " + cells(medians["base"], medians["new"]))
    q1, q3 = quartiles([r["throughput_per_s"] for r in runs["base"]])
    b = medians["base"]["throughput_per_s"]
    n = medians["new"]["throughput_per_s"]
    print("throughput: base %.1f [q1 %.1f, q3 %.1f] -> new %.1f/s (%+.1f %%), "
          "new won %d/%d pair(s)" % (b, q1, q3, n, 100.0 * (n - b) / b, won,
                                     args.pairs))
    for side in ("base", "new"):
        print("%s: correct %d/%d run(s), %d failed operation(s)"
              % (side, checks[side][0], args.pairs, checks[side][1]))


if __name__ == "__main__":
    main()
