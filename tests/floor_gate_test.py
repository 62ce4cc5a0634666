#!/usr/bin/env python3
"""Mutation test for the floor gate (tools/check_perf_floor.py).

For every section of bench/ci_perf_floor.json it builds a run whose rows sit
exactly on their floor entries' bounds, which the gate must pass.  Then it
breaks that run one way at a time and checks that the gate fails on exactly
the expected keys:

  - each checked field pushed just past its bound;
  - a pinned max_stretch flipped from a number to null and from null to a
    number;
  - one floor entry's row missing (fails E4 only, which must measure every
    entry, and any section left with no matched entry);
  - one row without a floor entry (fails every section except E4);
  - the empty run.

A last case adds an undeclared (misspelled) field to a floor entry, which
the gate must refuse instead of skipping.

Usage: floor_gate_test.py [--gate tools/check_perf_floor.py]
                          [--floor bench/ci_perf_floor.json]
"""

import argparse
import ast
import copy
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLACK = 0.25
TOLERANCE = 1e-6

# What the gate must enforce, written out apart from its own table: per
# section the key fields, whether every floor entry must be measured, and
# for each floor field the row field it gates and its check kind.
CONTRACT = {
    "e4": (("algo", "n", "f", "k", "threads"), True,
           {"seconds": ("seconds", "slack")}),
    "e13": (("algo", "model", "scenario", "graph", "n", "f", "k"), False,
            {"spanner_m": ("spanner_m", "exact"),
             "disconnected_trials": ("disconnected_trials", "exact"),
             "max_stretch": ("max_stretch", "close")}),
    "e16": (("family", "scale", "f", "k", "threads"), False,
            {"seconds": ("seconds", "slack"),
             "max_peak_rss_mb": ("peak_rss_mb", "ceiling"),
             "max_alloc_calls": ("alloc_calls", "ceiling"),
             "spanner_m": ("spanner_m", "exact")}),
    "e17": (("algo", "model", "scenario", "n", "f", "k"), False,
            {"spanner_m": ("spanner_m", "exact"),
             "disconnected_trials": ("disconnected_trials", "exact"),
             "max_stretch": ("max_stretch", "close")}),
    "e18": (("family", "n", "f", "k", "model"), False,
            {"min_speedup_vs_rebuild": ("speedup_vs_rebuild", "at_least"),
             "min_updates": ("updates", "at_least"),
             "min_queries": ("queries", "at_least"),
             "checkpoints_ok": ("checkpoints_ok", "true")}),
}

NO_MATCH = None  # a failure line that names no key: nothing matched


def bound_of(kind, value):
    """The value a measurement may reach and still pass."""
    return value * (1.0 + SLACK) if kind == "slack" else value


def just_past(kind, value):
    """A measurement that breaks the check by the smallest step its type
    allows."""
    if kind == "true":
        return False
    if kind == "close":
        return value + 2 * TOLERANCE
    limit = bound_of(kind, value)
    step = 1 if isinstance(limit, int) else abs(limit) * 1e-6
    return limit - step if kind == "at_least" else limit + step


def base_rows(section, floors):
    """One row per floor entry, each measured exactly on its bounds."""
    key_fields, _, checks = CONTRACT[section]
    rows = []
    for entry in floors:
        row = {f: entry[f] for f in key_fields}
        for field, (metric, kind) in checks.items():
            if kind == "true":
                row[metric] = True
            elif field in entry:
                row[metric] = bound_of(kind, entry[field])
        rows.append(row)
    return rows


def key_of(section, entry):
    return tuple(entry[f] for f in CONTRACT[section][0])


def cases(section, floors):
    """Yields (name, rows, floors, expected failing keys)."""
    key_fields, every_floor, checks = CONTRACT[section]
    base = base_rows(section, floors)
    first = key_of(section, floors[0])
    yield "base run", base, floors, set()

    for field, (metric, kind) in checks.items():
        for i, entry in enumerate(floors):
            if kind == "true" or entry.get(field) is not None:
                rows = copy.deepcopy(base)
                rows[i][metric] = just_past(kind, entry.get(field))
                yield ("%s pushed past its %s check" % (metric, kind), rows,
                       floors, {key_of(section, entry)})
                break

        if kind != "close":
            continue
        flips = (("number to null",
                  lambda e: field in e and e[field] is not None, None),
                 ("null to a number",
                  lambda e: field in e and e[field] is None, 3.0))
        for name, pick, value in flips:
            for i, entry in enumerate(floors):
                if pick(entry):
                    rows = copy.deepcopy(base)
                    rows[i][metric] = value
                    yield ("%s flipped from %s" % (metric, name), rows,
                           floors, {key_of(section, entry)})
                    break

    if every_floor:
        missing = {first}
    else:
        missing = {NO_MATCH} if len(floors) == 1 else set()
    yield "one floor entry's row missing", base[1:], floors, missing

    extra = dict(base[0], **{key_fields[0]: "unpinned"})
    yield ("one row without a floor entry", base + [extra], floors,
           set() if every_floor else {key_of(section, extra)})

    yield ("empty run", [], floors,
           {key_of(section, e) for e in floors} if every_floor
           else {NO_MATCH})

    typo = copy.deepcopy(floors)
    typo[0]["misspelled_" + next(iter(checks))] = 1
    yield "undeclared floor field", base, typo, {first}


def failing_keys(stderr):
    """The key named by each failure line (its first parenthesized
    tuple), or NO_MATCH for a line that names none."""
    keys = set()
    for line in stderr.splitlines():
        if not line.startswith("  - "):
            continue
        match = re.search(r"\([^()]*\)", line)
        keys.add(ast.literal_eval(match.group(0)) if match else NO_MATCH)
    return keys


def run_gate(gate, section, rows, floors, workdir):
    run_path = os.path.join(workdir, "run.json")
    floor_path = os.path.join(workdir, "floor.json")
    with open(run_path, "w") as fh:
        json.dump(rows, fh)
    with open(floor_path, "w") as fh:
        json.dump({section: floors}, fh)
    proc = subprocess.run(
        [sys.executable, gate, run_path, "--floor", floor_path,
         "--section", section, "--slack", str(SLACK)],
        capture_output=True, text=True)
    return proc.returncode, failing_keys(proc.stderr), proc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gate",
                        default=os.path.join(ROOT, "tools",
                                             "check_perf_floor.py"))
    parser.add_argument("--floor",
                        default=os.path.join(ROOT, "bench",
                                             "ci_perf_floor.json"))
    args = parser.parse_args()
    with open(args.floor) as fh:
        all_floors = json.load(fh)

    mismatches = 0
    total = 0
    with tempfile.TemporaryDirectory() as workdir:
        for section in CONTRACT:
            floors = all_floors[section]
            for name, rows, case_floors, expected in cases(section, floors):
                total += 1
                code, got, proc = run_gate(args.gate, section, rows,
                                           case_floors, workdir)
                if code == (1 if expected else 0) and got == expected:
                    print("ok    %s: %s" % (section, name))
                    continue
                mismatches += 1
                print("FAIL  %s: %s: exit %d, failing keys %s, expected %s"
                      % (section, name, code, sorted(got, key=repr),
                         sorted(expected, key=repr)))
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
    print("%d of %d cases as expected" % (total - mismatches, total))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
