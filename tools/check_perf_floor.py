#!/usr/bin/env python3
"""Floor gate for the bench JSON files.

A bench writes a JSON list of rows; bench/ci_perf_floor.json holds one list
of floor entries per section.  An entry's key fields select the row it
gates, and each of its other fields is a floor that SECTIONS below declares
with one check kind.  A floor field that its section does not declare is an
error, so a misspelled field cannot silently skip its check.

Check kinds (F = the entry's value, M = the row's measured value):
  slack     M <= F * (1 + --slack)      wall-clock
  ceiling   M <= F                      entry field max_X gates row field X
  at_least  M >= F                      entry field min_X gates row field X
  exact     M == F                      seeded runs reproduce exactly
  close     |M - F| <= 1e-6; null (a violating pair: the verifier stops at
            t * d_G, so the stretch reads infinite) meets only null
  true      M is true on every matched row; the entry carries no value

Missing rows: an E4 run must measure every floor entry.  The other sections
need at least one matched entry (the per-push E16 lane runs only its
smallest scale), and fail on a row that has no entry: pin a new config in
the floor file before landing it.

Usage:
  check_perf_floor.py RUN.json --floor bench/ci_perf_floor.json \\
      --section {e4,e13,e16,e17,e18} [--slack 0.25]

Exits non-zero with one line per failure, each naming the key of the entry
or row at fault.  Slack, ceiling and at-least checks also print a delta
table (config, metric, measured, floor, budget, headroom %) and mirror it
as markdown into $GITHUB_STEP_SUMMARY when CI provides one.
"""

import argparse
import collections
import json
import os
import sys

Section = collections.namedtuple("Section", "key every_floor checks")

SECTIONS = {
    "e4": Section(("algo", "n", "f", "k", "threads"), True,
                  {"seconds": "slack"}),
    "e13": Section(("algo", "model", "scenario", "graph", "n", "f", "k"),
                   False,
                   {"spanner_m": "exact", "disconnected_trials": "exact",
                    "max_stretch": "close"}),
    "e16": Section(("family", "scale", "f", "k", "threads"), False,
                   {"seconds": "slack", "max_peak_rss_mb": "ceiling",
                    "max_alloc_calls": "ceiling", "spanner_m": "exact"}),
    "e17": Section(("algo", "model", "scenario", "n", "f", "k"), False,
                   {"spanner_m": "exact", "disconnected_trials": "exact",
                    "max_stretch": "close"}),
    "e18": Section(("family", "n", "f", "k", "model"), False,
                   {"min_speedup_vs_rebuild": "at_least",
                    "min_updates": "at_least", "min_queries": "at_least",
                    "checkpoints_ok": "true"}),
}

STRETCH_TOLERANCE = 1e-6


def measured_field(field, kind):
    """The row field a floor field gates: max_X and min_X bound X."""
    if kind == "ceiling":
        return field[len("max_"):]
    if kind == "at_least":
        return field[len("min_"):]
    return field


def limit_of(kind, bound, slack):
    """The furthest a measurement may go: wall-clock floors get the slack."""
    return bound * (1.0 + slack) if kind == "slack" else bound


def violation(kind, measured, bound, slack):
    """Says what `measured` must be under one check, or None when it is."""
    if kind == "slack":
        limit = limit_of(kind, bound, slack)
        ok = measured <= limit
        must = "<= %g (floor %g + %d%% slack)" % (limit, bound,
                                                  round(slack * 100))
    elif kind == "ceiling":
        ok, must = measured <= bound, "<= %g (hard ceiling)" % bound
    elif kind == "at_least":
        ok, must = measured >= bound, ">= %g" % bound
    elif kind == "exact":
        ok, must = measured == bound, "%s exactly" % (bound,)
    elif kind == "close":
        ok = (measured is None) == (bound is None) and (
            bound is None or abs(measured - bound) <= STRETCH_TOLERANCE)
        must = "%s within %g (null = a violating pair)" % (bound,
                                                           STRETCH_TOLERANCE)
    elif kind == "true":
        ok, must = measured is True, "true"
    else:
        raise ValueError("unknown check kind %r" % kind)
    return None if ok else "is %s, must be %s" % (measured, must)


def check(name, rows, floors, slack):
    """Gates `rows` against one section's floor entries; returns the
    failures and the delta-table rows."""
    section = SECTIONS[name]
    failures = []
    deltas = []
    indexed = {tuple(r[f] for f in section.key): r for r in rows}
    matched = set()
    for floor in floors:
        key = tuple(floor[f] for f in section.key)
        undeclared = sorted(set(floor) - set(section.key)
                            - set(section.checks))
        if undeclared:
            failures.append("%s: floor field(s) %s not declared for section "
                            "%s" % (key, ", ".join(undeclared), name))
        row = indexed.get(key)
        if row is None:
            if section.every_floor:
                failures.append("%s: floor entry not measured in this run"
                                % (key,))
            else:
                print("  (floor entry %s not in this run)" % (key,))
            continue
        matched.add(key)
        cfg = " ".join("%s=%s" % item for item in zip(section.key, key))
        for field, kind in section.checks.items():
            if kind != "true" and field not in floor:
                continue
            metric = measured_field(field, kind)
            if metric not in row:
                failures.append("%s: row has no %s" % (key, metric))
                continue
            measured = row[metric]
            failure = violation(kind, measured, floor.get(field), slack)
            if failure:
                failures.append("%s: %s %s" % (key, metric, failure))
            if kind in ("slack", "ceiling", "at_least"):
                limit = limit_of(kind, floor[field], slack)
                low, high = ((limit, measured) if kind == "at_least"
                             else (measured, limit))
                room = (1.0 - low / high) * 100.0 if high else 0.0
                deltas.append((cfg, metric, measured, floor[field], limit,
                               room))
    if not section.every_floor:
        if not matched:
            failures.append("no %s row matched a floor entry — the run "
                            "measured nothing the gate covers" % name)
        for key in sorted(set(indexed) - matched, key=repr):
            failures.append("%s: row has no floor entry — pin it in the "
                            "floor file before landing the config" % (key,))
    return failures, deltas


def emit_delta_table(title, deltas):
    """Prints the delta table, and appends it as markdown to
    $GITHUB_STEP_SUMMARY when CI sets it, so every run shows how much room
    is left before the gate trips."""
    if not deltas:
        return
    print("\n%s:" % title)
    print("  %-44s %-20s %12s %12s %12s %9s"
          % ("config", "metric", "measured", "floor", "budget", "headroom"))
    for cfg, metric, measured, floor, budget, headroom in deltas:
        print("  %-44s %-20s %12.4f %12.4f %12.4f %+8.1f%%"
              % (cfg, metric, measured, floor, budget, headroom))
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write("### %s\n\n" % title)
            fh.write("| config | metric | measured | floor | budget "
                     "| headroom |\n|---|---|---:|---:|---:|---:|\n")
            for cfg, metric, measured, floor, budget, headroom in deltas:
                fh.write("| `%s` | %s | %.4f | %.4f | %.4f | %+.1f%% |\n"
                         % (cfg, metric, measured, floor, budget, headroom))
            fh.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("run", help="bench JSON to gate")
    parser.add_argument("--floor", required=True,
                        help="checked-in floor file (ci_perf_floor.json)")
    parser.add_argument("--section", required=True, choices=sorted(SECTIONS),
                        help="floor section the run is gated against")
    parser.add_argument("--slack", type=float, default=0.25,
                        help="allowed wall-clock regression over the floor "
                             "(default 25%%)")
    args = parser.parse_args()

    with open(args.run) as fh:
        rows = json.load(fh)
    with open(args.floor) as fh:
        floors = json.load(fh).get(args.section, [])
    print("%s: %d rows, %d floor entries"
          % (args.section, len(rows), len(floors)))
    failures, deltas = check(args.section, rows, floors, args.slack)
    emit_delta_table("%s floor deltas" % args.section, deltas)
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
