#!/usr/bin/env python3
"""Tests of the end-to-end benchmark binary itself.

    python3 selftest.py smoke <ftsched_e2e binary> <BENCHMARK.json>
    python3 selftest.py gate <ftsched_e2e binary>

smoke runs every workload BENCHMARK.json names at --smoke size, untraced and
traced, and fails unless each run exits 0 and its last stdout line is a JSON
object with exactly the keys correct/attempted/failed/metrics, correct is
true, and the metrics are exactly the end_to_end (untraced) or per_layer
(traced) metrics of BENCHMARK.json, each a number with the same unit.
Traced runs leave their TRACE_e2e_<workload>.jsonl in the working directory.

gate passes a wrong expected grant count to an admit smoke run and fails
unless that run exits 1, names the count gate on stderr, and reports
"correct": false.
"""
import json
import re
import subprocess
import sys


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(binary, workload, trace, specs):
    proc = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--trace", trace],
        capture_output=True, text=True, check=False)
    where = "%s --trace %s" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d: %s" % (where, proc.returncode, proc.stderr)]
    try:
        result = last_json(proc.stdout)
    except ValueError as err:
        return ["%s: last stdout line is not JSON: %s" % (where, err)]
    if not isinstance(result, dict) or \
            sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["%s: result is %r" % (where, result)]
    errors = []
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s" %
                      (where, result["correct"], result["attempted"]))
    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in specs}
    if sorted(metrics) != sorted(wanted):
        errors.append("%s: metrics %s, BENCHMARK.json names %s" %
                      (where, sorted(metrics), sorted(wanted)))
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            continue
        if not isinstance(got.get("value"), (int, float)):
            errors.append("%s: %s has no numeric value" % (where, name))
        if got.get("unit") != unit:
            errors.append("%s: %s unit %s, BENCHMARK.json says %s" %
                          (where, name, got.get("unit"), unit))
    return errors


def smoke(binary, spec_path):
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    errors = []
    for workload in spec["workloads"]:
        errors += check(binary, workload["name"], "0", spec["end_to_end"])
        errors += check(binary, workload["name"], "1", spec["per_layer"])
    return errors


def gate(binary):
    proc = subprocess.run(
        [binary, "--workload", "admit", "--smoke", "--expect", "granted=1"],
        capture_output=True, text=True, check=False)
    errors = []
    if proc.returncode != 1:
        errors.append("exit %d, expected 1" % proc.returncode)
    if not re.search(r"correctness gate failed: count granted is [0-9]+, "
                     r"expected 1\b", proc.stderr):
        errors.append("stderr does not name the count gate: %r" % proc.stderr)
    try:
        result = last_json(proc.stdout)
    except ValueError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not False:
        errors.append("result is %r, expected \"correct\": false" % result)
    return errors


def main():
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "smoke":
        errors = smoke(args[1], args[2])
    elif len(args) == 2 and args[0] == "gate":
        errors = gate(args[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
