#!/usr/bin/env python3
"""Builds the cre library and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
to .bench_build when that is unset. The traced run writes its spans there
too. The last line of the output is the benchmark's JSON result; build
output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    binary = out / target
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir() / f"spans-{args.workload}.jsonl"
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
