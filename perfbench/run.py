#!/usr/bin/env python3
"""Builds the two-clock benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload deploy_u200 --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build at the
repository root; build output is sent to stderr so the last line of
stdout is always the benchmark's JSON result. The binary runs with
address-space randomisation off where `setarch -R` is available, so
its memory layout (and the host-time noise that comes with it) is the
same on every run. See perfbench/README.md.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deploy_u200", "tenant_traffic", "fleet_churn")


def build(build_dir):
    """Configures (once) and incrementally builds the benchmark binary."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "salus_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "salus_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: salus sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or
        os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if shutil.which("setarch"):
        cmd = ["setarch", platform.machine(), "-R"] + cmd
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
