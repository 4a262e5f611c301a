#!/usr/bin/env python3
"""A/B comparison of the working tree against a base commit on perfbench.

    python3 bench/perf_ab.py --workload chains --base HEAD~ --pairs 6 \
        --seconds 10 --seed 7
    python3 bench/perf_ab.py --workload all --base HEAD~ --pairs 10

Run from the root of a git checkout (`make perf-ab` does).  Clones the
base commit into ${TMPDIR:-/tmp}/lslp-ab, builds perfbench/main.exe there
and in the working tree, then runs the two executables alternately — the
base first in even pairs, the working tree first in odd ones, so slow
drift of the host cancels.  Each side builds under its own checkout's
dune profile, so a base from before the release `dune-workspace` runs
dev's `-opaque` build.  `--workload all` does this for every workload
in turn, from one pair of builds.

Per workload it prints each pair's throughput, p50/p90 latency and peak
heap, then the median of every `end_to_end` metric BENCHMARK.json names
(read, never written) for both sides with its change, the base's
throughput quartiles, the pairs the working tree won on throughput, each
side's correct and failed counts, and a WORSE flag on every median that
moved past the metric's `bound` in the direction BENCHMARK.json calls
worse.  Report-only: wall-clock numbers are host noise, so nothing here
gates a build and the exit status ignores the flags.
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
PAIR_COLUMNS = (  # (metric, column label, decimals) printed per pair
    ("throughput_per_s", "thr/s", 1),
    ("latency_us_p50", "p50 us", 1),
    ("latency_us_p90", "p90 us", 1),
    ("peak_heap_mb", "heap MB", 3),
)
DECIMALS = {"count": 0, "x": 4, "MB": 3, "s": 3}


def end_to_end(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


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


def run(exe, workload, args, names):
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=args.seconds * 10 + 120)
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit("perf_ab: %s printed nothing" % exe)
    result = json.loads(lines[-1])
    values = {name: result["metrics"][name]["value"] for name in names}
    return values, result["correct"], result["failed"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def change(base, new):
    return (new - base) / base if base else 0.0


def worse(metric, base, new):
    """The median moved past the metric's bound in its worse direction."""
    c = change(base, new)
    if metric["better"] == "higher":
        return c < -metric["bound"]
    return c > metric["bound"]


def compare(workload, exes, args, metrics):
    names = [m["name"] for m in metrics]
    print("perf-ab: %s seed %d, %d pair(s) x %gs" % (
        workload, args.seed, args.pairs, args.seconds))
    print("pair  first " + "".join(
        "%13s %13s" % ("base " + label, "new " + label)
        for _, label, _ in PAIR_COLUMNS))
    runs = {"base": [], "new": []}
    checks = {"base": [0, 0], "new": [0, 0]}
    won = 0
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        got = {}
        for side in order:
            values, correct, failed = run(exes[side], workload, args, names)
            got[side] = values
            runs[side].append(values)
            checks[side][0] += 1 if correct else 0
            checks[side][1] += failed
        if got["new"]["throughput_per_s"] > got["base"]["throughput_per_s"]:
            won += 1
        print("%4d  %-5s " % (pair + 1, order[0]) + "".join(
            "%13.*f %13.*f" % (d, got["base"][n], d, got["new"][n])
            for n, _, d in PAIR_COLUMNS))
    medians = {side: {n: statistics.median(r[n] for r in runs[side])
                      for n in names}
               for side in runs}
    print("%-22s %14s %14s %9s %7s" % ("median", "base", "new", "change",
                                        "bound"))
    flagged = []
    for m in metrics:
        n = m["name"]
        d = DECIMALS.get(m["unit"], 1)
        b, v = medians["base"][n], medians["new"][n]
        bad = worse(m, b, v)
        if bad:
            flagged.append(n)
        print("%-22s %14.*f %14.*f %+8.1f%% %6.0f%%%s" % (
            n, d, b, d, v, 100.0 * change(b, v), 100.0 * m["bound"],
            "  WORSE past bound" if bad else ""))
    q1, q3 = quartiles([r["throughput_per_s"] for r in runs["base"]])
    b = medians["base"]["throughput_per_s"]
    n = medians["new"]["throughput_per_s"]
    print("throughput: base %.1f [q1 %.1f, q3 %.1f] -> new %.1f/s (%+.1f %%), "
          "new won %d/%d pair(s)" % (b, q1, q3, n, 100.0 * change(b, n), won,
                                     args.pairs))
    for side in ("base", "new"):
        print("%s: correct %d/%d run(s), %d failed operation(s)"
              % (side, checks[side][0], args.pairs, checks[side][1]))
    print("%s: %s" % (workload, "worse past bound: " + ", ".join(flagged)
                      if flagged else "no median worse past its bound"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="chains",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--base", default="HEAD~")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    metrics = end_to_end(root)
    if "throughput_per_s" not in [m["name"] for m in metrics]:
        sys.exit("perf_ab: BENCHMARK.json names no throughput_per_s")
    sha = git("rev-parse", "--verify", args.base + "^{commit}", cwd=root)
    base_dir = os.path.join(os.environ.get("TMPDIR", "/tmp"), "lslp-ab")
    shutil.rmtree(base_dir, ignore_errors=True)
    git("clone", "--quiet", "--no-checkout", root, base_dir)
    git("checkout", "--quiet", sha, cwd=base_dir)
    exes = {"base": build(base_dir), "new": build(root)}

    print("perf-ab: base %s (%s) vs working tree" % (args.base, sha[:10]))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for i, workload in enumerate(workloads):
        if i:
            print()
        compare(workload, exes, args, metrics)


if __name__ == "__main__":
    main()
