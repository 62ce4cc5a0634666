#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Run it from the repository root; it takes about a minute after the first
build.  On tiny inputs (--smoke) it checks that every workload prints every
end-to-end and per-layer metric of BENCHMARK.json with its unit, reports
ok_frac = 1, repeats its counts exactly at a fixed seed, and writes a trace
whose spans parse and account for the traced wall time.  It then plants
wrong outputs (a dropped needed spanner edge, a forged err reply) and checks
that each run fails, and checks that the command fails without printing a
result where only BENCHMARK.json and the benchmark's files exist.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def run(workload, seed=7, trace=0, extra=(), cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, lines, result


class Bench(unittest.TestCase):
    def check_result(self, proc, result, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, lines, result = run(w)
                self.check_result(proc, result, SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                # Same seed, same input, same counts and |H|.
                proc2, lines2, result2 = run(w)
                self.assertEqual(proc2.returncode, 0, proc2.stderr)
                pick = lambda ls: [l for l in ls if l.startswith(("input:", "counts:"))]
                self.assertEqual(len(pick(lines)), 2)
                self.assertEqual(pick(lines), pick(lines2))
                self.assertEqual(result["metrics"]["spanner_edges"], result2["metrics"]["spanner_edges"])

    def test_traced_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, lines, result = run(w, trace=1)
                self.check_result(proc, result, SPEC["per_layer"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                spans_line = [l for l in lines if l.startswith("spans: ")]
                self.assertEqual(len(spans_line), 1)
                with open(os.path.join(ROOT, spans_line[0][len("spans: "):])) as f:
                    trace = json.load(f)
                spans = trace["spans"]
                self.assertGreater(len(spans), 0)
                # Self time per layer = span minus the part its children
                # cover; with the uncovered time they add up to the window.
                child = [0.0] * len(spans)
                for s in spans:
                    self.assertLessEqual(s["start"], s["end"])
                    if s["parent"] >= 0:
                        parent = spans[s["parent"]]
                        self.assertLessEqual(parent["start"], s["start"])
                        self.assertLessEqual(s["end"], parent["end"])
                        child[s["parent"]] += s["end"] - s["start"]
                selfs = {}
                for s, c in zip(spans, child):
                    selfs[s["layer"]] = selfs.get(s["layer"], 0.0) + s["end"] - s["start"] - c
                for layer, t in selfs.items():
                    self.assertAlmostEqual(values[f"{layer}.self_s"], t, places=6)
                accounted = sum(selfs.values()) + values["obs.uncovered_s"]
                self.assertAlmostEqual(accounted, values["obs.wall_s"], places=6)
                self.assertGreaterEqual(values["obs.uncovered_s"], 0)
                self.assertGreater(values["obs.trace_overhead"], 0)
                self.assertEqual(trace["layers"], values)

    def test_needed_edge_dropped_fails(self):
        for w in ("geo-vft", "kron-eft"):
            with self.subTest(workload=w):
                proc, _, result = run(w, extra=("--inject", "drop-edge"))
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("dropped spanner edge", proc.stderr)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_err_reply_fails(self):
        proc, _, result = run("flap-serve", extra=("--inject", "err-reply"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertRegex(proc.stderr, re.compile(r"CHECK FAILED: 'insert 0 0' replied 'err "))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_rejects_bad_arguments(self):
        proc, lines, result = run("no-such-workload")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            proc, lines, result = run(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_leaves_no_temporary_files(self):
        run(WORKLOADS[-1])
        run(WORKLOADS[-1], extra=("--inject", "err-reply"))
        self.assertEqual(os.listdir(TMP), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
