#!/usr/bin/env python3
"""CI smoke checker for exported Chrome trace-event JSON.

Validates that a trace written by the ftobs layer (--trace on a bench or
ftspan_cli) is structurally sound before it is uploaded as an artifact:

1. the file parses as JSON with a top-level {"traceEvents": [...]} object;
2. every duration event nests correctly per track: B/E pairs are matched
   (no orphan E, no unclosed B) and timestamps are monotone within a track,
   so Perfetto's importer will accept every track;
3. the trace actually covers the instrumented subsystems: at least
   --min-categories distinct categories and at least --min-tracks named
   thread tracks;
4. thread_name metadata is present for every tid that emitted events.

Usage:
  check_trace.py TRACE.json --min-categories N [--min-tracks 2]
                 [--require-category CAT ...]

Exits non-zero with a per-failure report.  --min-categories is required:
how many categories a trace must show depends on the run it records, so
the caller states it.  A traced build emits the tree, graft and sweep
categories on the main track; a verification with --threads N > 1 adds
pool and verify spans on N tracks; a traced ftspand session adds service
spans.  The CI lanes pass --min-categories and --require-category to match
the run they trace.
"""

import argparse
import collections
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--min-categories", type=int, required=True,
                        help="distinct event categories required")
    parser.add_argument("--min-tracks", type=int, default=2,
                        help="named thread tracks required (default 2)")
    parser.add_argument("--require-category", action="append", default=[],
                        metavar="CAT",
                        help="category that must appear (repeatable)")
    args = parser.parse_args()

    failures = []
    try:
        with open(args.trace) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print("FAILURE: %s does not parse: %s" % (args.trace, err),
              file=sys.stderr)
        return 1

    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        print("FAILURE: no traceEvents array in %s" % args.trace,
              file=sys.stderr)
        return 1

    depth = collections.Counter()       # open B count per tid
    last_ts = {}                        # monotonicity per tid
    categories = collections.Counter()
    track_names = {}
    event_tids = set()
    for i, e in enumerate(events):
        ph = e.get("ph")
        tid = e.get("tid")
        if ph == "M":
            if e.get("name") == "thread_name":
                track_names[tid] = e.get("args", {}).get("name", "")
            continue
        event_tids.add(tid)
        ts = e.get("ts")
        if not isinstance(ts, (int, float)):
            failures.append("event %d (tid %s): missing/non-numeric ts"
                            % (i, tid))
            continue
        if ts < last_ts.get(tid, float("-inf")):
            failures.append(
                "event %d (tid %s): ts %.3f goes backwards (track was at "
                "%.3f)" % (i, tid, ts, last_ts[tid]))
        last_ts[tid] = ts
        if ph == "B":
            depth[tid] += 1
        elif ph == "E":
            if depth[tid] == 0:
                failures.append("event %d (tid %s): E without a matching B"
                                % (i, tid))
            else:
                depth[tid] -= 1
        elif ph != "i":
            failures.append("event %d (tid %s): unexpected phase %r"
                            % (i, tid, ph))
        if ph in ("B", "i"):
            cat = e.get("cat")
            if not cat:
                failures.append("event %d (tid %s): %s event without a "
                                "category" % (i, tid, ph))
            else:
                categories[cat] += 1

    for tid, open_spans in depth.items():
        if open_spans:
            failures.append("tid %s: %d span(s) left open at end of trace"
                            % (tid, open_spans))
    for tid in sorted(event_tids, key=str):
        if tid not in track_names:
            failures.append("tid %s emitted events but has no thread_name "
                            "metadata" % tid)

    if len(categories) < args.min_categories:
        failures.append(
            "only %d distinct categories (%s) — expected >= %d"
            % (len(categories), ", ".join(sorted(categories)),
               args.min_categories))
    for cat in args.require_category:
        if cat not in categories:
            failures.append("required category %r absent" % cat)
    named_tracks = [n for t, n in track_names.items() if t in event_tids]
    if len(named_tracks) < args.min_tracks:
        failures.append("only %d named track(s) with events — expected >= %d"
                        % (len(named_tracks), args.min_tracks))

    print("%s: %d events, %d tracks, %d categories"
          % (args.trace, len(events), len(event_tids), len(categories)))
    for cat, count in categories.most_common():
        print("  %-12s %d" % (cat, count))
    for tid in sorted(event_tids, key=str):
        print("  track %-4s %s" % (tid, track_names.get(tid, "(unnamed)")))

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("trace OK: parses, matched pairs, monotone tracks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
