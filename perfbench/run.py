#!/usr/bin/env python3
"""Runs one workload of the ftspan benchmark.

    python3 perfbench/run.py --workload geo-vft|kron-eft|flap-serve \
        --seed N --seconds S --trace 0|1 [--smoke] [--inject drop-edge|err-reply]

Run it from the repository root.  It builds perfbench/ftbench and the
library from source into .bench_build/perfbench (the first run compiles,
later runs only check that the build is current), makes a private temporary
directory for the run's input file and socket, runs the workload, and
removes the directory on every exit path.  ftbench prints the result object
as the last stdout line; the exit code is ftbench's (0 = every output
checked out).  With --trace 1 the spans go to .bench_build/traces/.
Nothing is written outside the repository.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH_BUILD, "perfbench")
TMP = os.path.join(BENCH_BUILD, "tmp")
WORKLOADS = ("geo-vft", "kron-eft", "flap-serve")


def run_timeout_s(seconds):
    """ftbench's work scales with --seconds (about that long on a 4-vCPU
    Xeon), so a run taking four times as long has hung; the floor covers
    the fixed minimum of one build, verification or session."""
    return max(60, 4 * seconds + 30)


def build():
    """Configures (once) and builds ftbench; exits 1 with the log tail on failure."""
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    log_path = os.path.join(BUILD, "build.log")
    env = dict(os.environ, TMPDIR=TMP)  # compiler temporaries stay in the checkout
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                break
        else:
            return os.path.join(BUILD, "ftbench")
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("run.py: building the benchmark failed\n")
    if len(steps) == 2:  # no usable cache yet: configure afresh next time
        shutil.rmtree(BUILD, ignore_errors=True)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    parser.add_argument("--inject", choices=("drop-edge", "err-reply"),
                        help="plant a wrong output, for the benchmark's test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    run_dir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmp", os.path.relpath(run_dir, ROOT)]
        if args.smoke:
            cmd.append("--smoke")
        if args.inject:
            cmd += ["--inject", args.inject]
        if args.trace == "1":
            traces = os.path.join(BENCH_BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}.json"
            cmd += ["--spans", os.path.relpath(os.path.join(traces, name), ROOT)]
        timeout = run_timeout_s(args.seconds)
        try:
            return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"run.py: {args.workload} exceeded {timeout} s\n")
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
