#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-update --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/perfbench.exe from source into
.bench_build/ (release profile, dune cache off, so nothing is written
outside the checkout) and runs it; the last line of its standard output
is the JSON result. --selftest runs the seeded SEC!POP mutant on
sim-update and exits 0 only if the output check reports failures.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
TRACE_DIR = os.path.join(BUILD_DIR, "perfbench")
# The files the build needs; their absence means this is not a checkout.
REQUIRED = ["dune-project", "lib/harness/runner.mli", "perfbench/dune"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        sys.exit("perfbench: run from the root of a checkout (missing %s)"
                 % ", ".join(missing))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    status = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
    if status != 0:
        sys.exit("perfbench: build failed (dune exit %d)" % status)


def run(args):
    """Run the benchmark executable, passing its output through; returns
    its exit status and the last line it printed."""
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    build()
    if opts.selftest:
        status, last = run(["--workload", "sim-update", "--seed", "1",
                            "--seconds", "2", "--trace", "0",
                            "--stack", "SEC!POP"])
        failed = json.loads(last)["failed"] if status == 0 else 0
        print("selftest: SEC!POP on sim-update reported %d failed operations: %s"
              % (failed, "PASS" if failed > 0 else "FAIL"))
        sys.exit(0 if failed > 0 else 1)
    if None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    status, _ = run(["--workload", opts.workload, "--seed", str(opts.seed),
                     "--seconds", str(opts.seconds), "--trace", str(opts.trace),
                     "--trace-dir", TRACE_DIR])
    sys.exit(status)


if __name__ == "__main__":
    main()
