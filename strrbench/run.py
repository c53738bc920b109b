#!/usr/bin/env python3
"""Build strrbench from source and run one workload.

Usage (from the repository root):

    python3 strrbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Workloads: paper_sweep, serve_hot, ingest_serve (see strrbench/README.md).
The build and all run state (dataset cache, engine work directory, result
files, traces) live under $CARGO_TARGET_DIR, or .bench_build when unset,
relative to the repository root. The last line of stdout is the run's JSON
result; the exit code is non-zero when the build fails, a run fails, or an
answer check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "serve_hot", "ingest_serve")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "strrbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "strrbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = build_root()
    try:
        binary = build(os.path.join(root, "strrbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"strrbench: build failed: {err}", file=sys.stderr)
        return 2
    state = os.path.join(root, "strrbench-state")
    os.makedirs(state, exist_ok=True)
    # Dataset generation (first run only) runs in its own process.
    prepare = subprocess.run([binary, "--prepare", "--state", state])
    if prepare.returncode != 0:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--state", state]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
