#!/usr/bin/env python3
"""A/B comparison of the working tree against a base commit on perfbench.

    python3 bench/perf_ab.py --workload chains --base HEAD~ --pairs 6 \
        --seconds 10 --seed 7
    python3 bench/perf_ab.py --workload all --base HEAD~ --pairs 10
    python3 bench/perf_ab.py --workload all --base HEAD~ --layers --pairs 0

Run from the root of a git checkout (`make perf-ab` does).  Clones the
base commit into ${TMPDIR:-/tmp}/lslp-ab, builds perfbench/main.exe there
and in the working tree, then runs the two executables alternately — the
base first in even pairs, the working tree first in odd ones, so slow
drift of the host cancels.  Each side builds under its own checkout's
dune profile, so a base from before the release `dune-workspace` runs
dev's `-opaque` build.  `--workload all` does this for every workload
in turn, from one pair of builds.

Per workload it prints each pair's throughput, p50/p90 latency and peak
heap.  Then, for every `end_to_end` metric BENCHMARK.json names (read,
never written), it prints both sides' medians with the change, the
metric's bound, the base's first and third quartiles, and how many pairs
the working tree won.  "Won" and "worse" follow the direction
BENCHMARK.json calls better for that metric: a higher throughput wins, a
lower latency wins.  A WORSE flag marks every median that moved past its
`bound` in the worse direction.  Last come each side's correct and failed
counts.  Report-only: wall-clock numbers are host noise, so nothing here
gates a build and the exit status ignores the flags.

`--layers` first runs each side's allocation probe (`main.exe --alloc-probe`,
the line `make layers-check` compares) and prints every span whose
self-allocated words or call count moved, in words per request, and
whether the work-counter digests agree.  `--pairs 0` skips the timed
pairs, leaving only that listing.
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
# The allocation probe's span order: perfbench/span.ml's names table, as
# bench/layers.ml lists it.
SPANS = (
    "bench.compile", "service.job", "frontend.parse", "frontend.lower",
    "frontend.unroll", "core.pipeline", "ir.arena", "core.seeds",
    "analysis.depgraph", "core.graph_build", "core.cost", "core.codegen",
    "ir.verify", "core.reduction", "ir.cse", "ir.dce", "ir.print",
    "util.normalize", "check.snapshot", "cache.lookup", "cache.insert",
)


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


def probe(exe, workload, seed):
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--alloc-probe"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perf_ab: the %s allocation probe of %s failed"
                 % (workload, exe))
    return json.loads(lines[-1])


def layers(workload, exes, args):
    """Every span whose words or calls moved, in words per request."""
    got = {side: probe(exes[side], workload, args.seed) for side in exes}
    print("layers: %s seed %d, %d request(s) base, %d new" % (
        workload, args.seed, got["base"]["requests"],
        got["new"]["requests"]))
    print("%-20s %14s %14s %9s %10s %10s" % (
        "span", "base w/req", "new w/req", "change", "base calls",
        "new calls"))
    moved = 0
    for k, name in enumerate(SPANS):
        row = {}
        for side in ("base", "new"):
            words, calls = got[side]["words"], got[side]["calls"]
            row[side] = (words[k] if k < len(words) else 0.0,
                         calls[k] if k < len(calls) else 0)
        if row["base"] == row["new"]:
            continue
        moved += 1
        per = {side: row[side][0] / max(got[side]["requests"], 1)
               for side in row}
        print("%-20s %14.1f %14.1f %+8.1f%% %10d %10d" % (
            name, per["base"], per["new"],
            100.0 * change(per["base"], per["new"]), row["base"][1],
            row["new"][1]))
    same = got["base"]["counters"] == got["new"]["counters"]
    print("layers: %s: %d span(s) moved, work counters %s" % (
        workload, moved, "identical" if same else "DIFFER"))


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


def better(metric, base, new):
    """[new] beats [base] in the direction BENCHMARK.json calls better."""
    return new > base if metric["better"] == "higher" else new < base


def compare(workload, exes, args, metrics):
    names = [m["name"] for m in metrics]
    print("perf-ab: %s seed %d, %d pair(s) x %gs" % (
        workload, args.seed, args.pairs, args.seconds))
    print("pair  first " + "".join(
        "%13s %13s" % ("base " + label, "new " + label)
        for _, label, _ in PAIR_COLUMNS))
    runs = {"base": [], "new": []}
    checks = {"base": [0, 0], "new": [0, 0]}
    for pair in range(args.pairs):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        got = {}
        for side in order:
            values, correct, failed = run(exes[side], workload, args, names)
            got[side] = values
            runs[side].append(values)
            checks[side][0] += 1 if correct else 0
            checks[side][1] += failed
        print("%4d  %-5s " % (pair + 1, order[0]) + "".join(
            "%13.*f %13.*f" % (d, got["base"][n], d, got["new"][n])
            for n, _, d in PAIR_COLUMNS))
    print("%-22s %14s %14s %9s %7s %14s %14s %5s" % (
        "median", "base", "new", "change", "bound", "base q1", "base q3",
        "won"))
    flagged = []
    for m in metrics:
        n = m["name"]
        d = DECIMALS.get(m["unit"], 1)
        base = [r[n] for r in runs["base"]]
        b = statistics.median(base)
        v = statistics.median(r[n] for r in runs["new"])
        q1, q3 = quartiles(base)
        won = sum(better(m, rb[n], rn[n])
                  for rb, rn in zip(runs["base"], runs["new"]))
        bad = worse(m, b, v)
        if bad:
            flagged.append(n)
        print("%-22s %14.*f %14.*f %+8.1f%% %6.0f%% %14.*f %14.*f %2d/%-2d%s" % (
            n, d, b, d, v, 100.0 * change(b, v), 100.0 * m["bound"], d, q1,
            d, q3, won, args.pairs, "  WORSE past bound" if bad else ""))
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
    ap.add_argument("--layers", action="store_true",
                    help="list the spans whose allocation moved")
    args = ap.parse_args()
    if args.pairs < 0 or (args.pairs == 0 and not args.layers):
        sys.exit("perf_ab: --pairs must be positive (0 only with --layers)")

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
        if args.layers:
            layers(workload, exes, args)
        if args.pairs:
            compare(workload, exes, args, metrics)


if __name__ == "__main__":
    main()
