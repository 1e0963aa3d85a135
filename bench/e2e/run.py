#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload fig9|admit|churn|recovery \\
        [--seed N] [--seconds S] [--trace 0|1] [ftsched_e2e flags...]

Run from the root of a checkout. The first call configures and compiles the
library and the ftsched_e2e binary into .bench_build/e2e (a few minutes at
most); later calls only run an incremental build. Build output goes to
stderr, so the last stdout line is the binary's JSON result. For the default
seed, the counts pinned in bench/e2e/expected.json are passed to
the binary as --expect gates. The exit code is the build's when it fails,
else the binary's.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "ftsched_e2e")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False).returncode
        if code != 0:
            return code
    return 0


def option(args, name, default):
    if name in args:
        at = args.index(name)
        if at + 1 < len(args):
            return args[at + 1]
    return default


def expect_flags(args):
    """--expect gates for the default seed at full size, else none."""
    if "--smoke" in args or "--expect" in args:
        return []
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        expected = json.load(f)
    if option(args, "--seed", str(expected["seed"])) != str(expected["seed"]):
        return []
    counts = expected["counts"].get(option(args, "--workload", ""), {})
    flags = []
    for name, value in sorted(counts.items()):
        flags += ["--expect", "%s=%d" % (name, value)]
    return flags


def main():
    args = sys.argv[1:]
    code = build()
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code if code > 0 else 1
    code = subprocess.run([BINARY] + args + expect_flags(args), cwd=ROOT,
                          check=False).returncode
    return 1 if code < 0 else code  # killed by a signal, e.g. a contract abort


if __name__ == "__main__":
    sys.exit(main())
