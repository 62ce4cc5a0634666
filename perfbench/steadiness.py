#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --seeds 1-10 [--label "set A"]
        [--record perfbench/steadiness.json]

Run it from the repository root.  It runs perfbench/run.py once per seed
for each workload in BENCHMARK.json, each workload's seeds back to back as
a harness measuring one workload at a time would.  It prints for each
end-to-end metric the median of the runs, the quartile spread
(Q3 - Q1) / median with statistics.quantiles(values, n=4), and that spread
as a share of the metric's bound in BENCHMARK.json.  A spread at or above a
third of its bound is flagged.  With --record the set (label, start and end time, every value and the raw
samples behind it) is appended to that JSON file; --report FILE prints the
recorded sets side by side as a markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported correct=false")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["samples"] = [l[len("samples: "):] for l in lines if l.startswith("samples: ")]
    print(f"  {workload:10s} seed {seed:3d}  {time.time() - t0:5.1f} s  " +
          " ".join(f"{k}={v:.4g}" for k, v in values.items() if k != "samples"), flush=True)
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def summarize(spec, runs):
    """runs: {workload: [ {metric: value} ]} -> rows of (workload, metric, median, spread, bound)."""
    rows = []
    for workload, results in runs.items():
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in results]
            med, sp = spread(values) if len(values) >= 2 else (values[0], 0.0)
            rows.append((workload, metric["name"], med, sp, metric["bound"]))
    return rows


def print_rows(rows):
    print(f"{'workload':10s} {'metric':14s} {'median':>12s} {'IQR/med':>8s} {'bound':>6s} {'share':>6s}")
    for workload, name, med, sp, bound in rows:
        flag = "" if sp < bound / 3 else "  <-- at or above bound/3"
        print(f"{workload:10s} {name:14s} {med:12.6g} {sp:8.4f} {bound:6.2f} {sp / bound:6.2f}{flag}")


def report(path):
    """Markdown: per workload and metric, each set's median and spread, and
    how much worse the last set's median is than the first's."""
    with open(path) as f:
        sets = json.load(f)
    spec = load_spec()
    head = "| workload | metric | bound |"
    for s in sets:
        head += f" {s['label']} median | {s['label']} spread |"
    print(head + " last vs first |")
    print("|---" * (3 + 2 * len(sets) + 1) + "|")
    rows = [summarize(spec, s["runs"]) for s in sets]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for i, (workload, name, _, _, bound) in enumerate(rows[0]):
        line = f"| {workload} | `{name}` | {bound} |"
        for r in rows:
            sp = r[i][3]
            mark = "**" if sp >= bound / 3 else ""
            line += f" {r[i][2]:.6g} | {mark}{sp:.3f}{mark} |"
        first, last = rows[0][i][2], rows[-1][i][2]
        change = (last - first) / first if first else 0.0
        print(line + f" {-change if better[name] == 'higher' else change:+.3f} |")
    print()
    for s in sets:
        print(f"- {s['label']}: {s['start']} to {s['end']}, seeds {s['seeds'][0]}-{s['seeds'][-1]}, "
              f"run_seconds {s['run_seconds']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", default="")
    parser.add_argument("--record", help="append this set to a JSON record file")
    parser.add_argument("--report", help="print the sets recorded in this file as markdown")
    args = parser.parse_args()
    if args.report:
        report(args.report)
        return
    spec = load_spec()
    seeds = parse_seeds(args.seeds)
    start = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    runs = {w["name"]: [run_once(spec, w["name"], seed) for seed in seeds] for w in spec["workloads"]}
    end = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    print_rows(summarize(spec, runs))
    if args.record:
        sets = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                sets = json.load(f)
        sets.append({"label": args.label, "start": start, "end": end, "seeds": seeds,
                     "run_seconds": spec["run_seconds"], "runs": runs})
        with open(args.record, "w") as f:
            json.dump(sets, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
