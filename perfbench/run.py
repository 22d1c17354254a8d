#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line last.

    python3 perfbench/run.py --workload churn_ckpt --seed 1 --seconds 25 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `perfbench/target`), writes the workload's seeded inputs in one
process, then measures them in a second process so that its peak RSS is the
workload's alone. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones and writes the spans to `.perfbench_work/<workload>/spans.jsonl`.
Exits non-zero, without a result line, if the build or input generation
fails, and non-zero after the result line if any output check failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn_ckpt", "wide_stream", "whatif_serve")
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def build():
    """Builds the benchmark binary and returns its path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "cgsim-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        gen = subprocess.run([exe, "gen"] + common, stdout=sys.stderr,
                             timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 1
        run = subprocess.run(
            [exe, "run"] + common + ["--seconds", str(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {' '.join(e.cmd[:2])} timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
