#!/usr/bin/env python3
"""Gate: the default build is the release build, with dev's warning gate.

    python3 bench/opaque_check.py

Run from the root of the checkout (`make opaque-check` does).  Fails when

  - the default build compiles a `lib/` module with `-opaque`: for one
    module of every library under `lib/`, `dune rules` must show an
    `ocamlopt` command for its `.cmx` without `-opaque`;
  - `dune printenv .` and `dune printenv --profile dev .` leave a
    different set of warnings enabled or turned into errors, or the
    default build drops another of dev's flags (`-strict-sequence` ...).

`-opaque` stops the native compiler from reading a module's `.cmx`
across library boundaries, so no cross-library call is inlined; dev
passes it for faster incremental builds, release does not.
"""

import glob
import os
import re
import shutil
import subprocess
import sys


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("opaque-check: neither dune nor opam is on PATH")


def dune_output(*args):
    done = subprocess.run(dune() + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("opaque-check: dune %s failed:\n%s"
                 % (" ".join(args), done.stderr))
    return done.stdout


# -- -opaque on lib/ modules -------------------------------------------------

def probe_targets():
    """One `.cmx` per library under lib/: {target: library}."""
    targets = {}
    for dune_file in sorted(glob.glob("lib/*/dune")):
        d = os.path.dirname(dune_file)
        with open(dune_file) as f:
            m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
        if not m:
            continue
        lib = m.group(1)
        mods = sorted(os.path.basename(p)[:-3]
                      for p in glob.glob(os.path.join(d, "*.ml")))
        mods = [x for x in mods if x != lib]
        if not mods:
            continue
        unit = "%s__%s" % (lib, mods[0].capitalize())
        targets[os.path.join(d, ".%s.objs" % lib, "native",
                             unit + ".cmx")] = lib
    return targets


def opaque_failures():
    targets = probe_targets()
    if not targets:
        return ["no library found under lib/"]
    rules = re.split(r"^\(\(deps", dune_output("rules", *targets), flags=re.M)
    failures = []
    for t, lib in sorted(targets.items()):
        words = next((r.split() for r in rules if "_build/default/" + t in r),
                     None)
        if words is None:
            failures.append("%s: dune printed no rule for %s" % (lib, t))
        elif not any(os.path.basename(w).startswith("ocamlopt")
                     for w in words):
            failures.append("%s: no ocamlopt command for %s" % (lib, t))
        elif "-opaque" in words:
            failures.append("%s: %s is compiled with -opaque" % (lib, t))
    return failures


# -- the warning gate --------------------------------------------------------

def warning_state(flags):
    """{warning: (enabled, error)} for every warning some flag touches;
    each half is None when no flag sets it."""
    state = {}

    def apply(spec, warn_error):
        for sign, lo, hi in re.findall(r"([-+@])(\d+)(?:\.\.(\d+))?", spec):
            for n in range(int(lo), int(hi or lo) + 1):
                enabled, error = state.get(n, (None, None))
                if sign == "@":
                    enabled, error = True, True
                elif warn_error:
                    error = sign == "+"
                else:
                    enabled = sign == "+"
                state[n] = (enabled, error)
        rest = re.sub(r"[-+@]\d+(?:\.\.\d+)?", "", spec)
        if rest:
            sys.exit("opaque-check: unsupported warning spec %r" % spec)

    others = []
    i = 0
    while i < len(flags):
        if flags[i] in ("-w", "-warn-error") and i + 1 < len(flags):
            apply(flags[i + 1], flags[i] == "-warn-error")
            i += 2
        else:
            others.append(flags[i])
            i += 1
    return state, others


def printenv_flags(*args):
    """The atoms of the `(flags (...))` entry `dune printenv` prints."""
    m = re.search(r"\(flags\s*\(([^()]*)\)\)", dune_output("printenv", *args))
    if not m:
        sys.exit("opaque-check: dune printenv %s printed no flags"
                 % " ".join(args))
    return m.group(1).split()


def warning_failures():
    (w_default, o_default), (w_dev, o_dev) = (
        warning_state(printenv_flags(".")),
        warning_state(printenv_flags("--profile", "dev", ".")))
    failures = []
    for n in sorted(set(w_default) | set(w_dev)):
        a, b = w_default.get(n, (None, None)), w_dev.get(n, (None, None))
        if a != b:
            failures.append("warning %d: default build (enabled, error) = %s, "
                            "dev = %s" % (n, a, b))
    for flag in o_dev:
        if flag not in o_default:
            failures.append("default build lacks dev's %s" % flag)
    return failures


def main():
    failures = opaque_failures() + warning_failures()
    for line in failures:
        print("opaque-check: " + line)
    if failures:
        sys.exit(1)
    print("opaque-check: %d lib/ libraries compile without -opaque; "
          "warning gate as in dev" % len(probe_targets()))


if __name__ == "__main__":
    main()
