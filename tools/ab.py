#!/usr/bin/env python3
"""A/B-compares two versions of the end-to-end benchmark on one workload.

    python3 tools/ab.py PARENT CHANGE --workload fig9|admit|churn|recovery \\
        [--pairs N] [--seconds S] [--seed N] [--smoke]

PARENT and CHANGE are each either a checkout (a directory: its
bench/e2e/run.py builds and runs its own ftsched_e2e) or an ftsched_e2e
executable. The two are run with --trace 0 in N pairs, alternating which
side goes first, so slow drift of the host hits both sides alike. Every run
must report "correct": true.

For each metric the table prints both medians, the change/parent ratio of
the medians, a 95% interval of that ratio from a seeded bootstrap over the
pairs, and wins/pairs: the pairs in which the change beat its parent in the
metric's "better" direction (BENCHMARK.json). When the interval covers 1 the
verdict is "no detectable difference". --smoke runs the workload at smoke
size with two pairs by default and a shorter bootstrap; it checks the
driver, not the code.

Exit code: 0 when every run succeeded, 1 when a run failed, 2 on bad usage.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_SEED = 2006
BOOTSTRAP_ROUNDS = 2000
SMOKE_BOOTSTRAP_ROUNDS = 200


def better_directions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def command(side, args):
    flags = ["--workload", args.workload, "--trace", "0",
             "--seconds", str(args.seconds)]
    if args.seed is not None:
        flags += ["--seed", str(args.seed)]
    if args.smoke:
        flags.append("--smoke")
    if os.path.isdir(side):
        return [sys.executable, os.path.join("bench", "e2e", "run.py")] + \
            flags, side
    return [os.path.abspath(side)] + flags, None


def run_once(side, args):
    argv, cwd = command(side, args)
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            result.get("correct") is not True:
        raise RuntimeError("%s exited %d with %r" %
                           (" ".join(argv), proc.returncode,
                            lines[-1] if lines else ""))
    return {name: m["value"] for name, m in result["metrics"].items()}


def ratio(change, parent):
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def bootstrap_interval(parent, change, rounds, rng):
    """95% interval of median(change)/median(parent), resampling pairs."""
    n = len(parent)
    ratios = []
    for _ in range(rounds):
        picks = [rng.randrange(n) for _ in range(n)]
        ratios.append(ratio(statistics.median(change[i] for i in picks),
                            statistics.median(parent[i] for i in picks)))
    ratios.sort()
    return ratios[int(0.025 * (rounds - 1))], ratios[int(0.975 * (rounds - 1))]


def main():
    parser = argparse.ArgumentParser(
        description="A/B-compare two versions of bench/e2e on one workload.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        choices=["fig9", "admit", "churn", "recovery"])
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.pairs is None:
        args.pairs = 2 if args.smoke else 5
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    for side in (args.parent, args.change):
        if not os.path.isdir(side) and not os.access(side, os.X_OK):
            parser.error("%s is neither a checkout nor an executable" % side)

    better = better_directions()
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for name in order:
            side = args.parent if name == "parent" else args.change
            try:
                runs[name].append(run_once(side, args))
            except RuntimeError as err:
                print("ab.py: pair %d, %s: %s" % (pair + 1, name, err),
                      file=sys.stderr)
                return 1
        print("# pair %d/%d done" % (pair + 1, args.pairs), file=sys.stderr)

    rounds = SMOKE_BOOTSTRAP_ROUNDS if args.smoke else BOOTSTRAP_ROUNDS
    rng = random.Random(BOOTSTRAP_SEED)
    print("# ab: workload %s%s, %d pairs, --seconds %g%s, bootstrap %d "
          "(seed %d)" % (args.workload,
                         "" if args.seed is None else " --seed %d" % args.seed,
                         args.pairs, args.seconds,
                         " --smoke" if args.smoke else "", rounds,
                         BOOTSTRAP_SEED))
    print("%-16s %14s %14s %7s %17s %7s  %s" %
          ("metric", "parent_median", "change_median", "ratio", "95% interval",
           "wins", "verdict"))
    for metric, direction in better.items():
        parent = [run[metric] for run in runs["parent"]]
        change = [run[metric] for run in runs["change"]]
        low, high = bootstrap_interval(parent, change, rounds, rng)
        higher = direction == "higher"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        if low <= 1.0 <= high:
            verdict = "no detectable difference"
        elif (low > 1.0) == higher:
            verdict = "better"
        else:
            verdict = "worse"
        print("%-16s %14.6g %14.6g %7.3f %17s %7s  %s" %
              (metric, statistics.median(parent), statistics.median(change),
               ratio(statistics.median(change), statistics.median(parent)),
               "[%.3f, %.3f]" % (low, high),
               "%d/%d" % (wins, args.pairs), verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
