#!/usr/bin/env python3
"""Build and run the vpmem end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady_sweep --seed 1 --seconds 30 --trace 0

The first call configures and builds the library and the benchmark (Release)
under .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); later calls
rebuild incrementally.  Build output goes to stderr; the benchmark's last
stdout line is the result object.  Extra modes:

    python3 perfbench/run.py --selftest          # benchmark self-tests
    python3 perfbench/run.py --workload W --record-golden
                                                 # re-record W's default-seed digests
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(build_path):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_path, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_path, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_path, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_path = build_dir()
    if not build(build_path):
        return 1
    if args.selftest:
        return run([os.path.join(build_path, "perfbench_selftest"), os.path.join(build_path, "out")])
    cmd = [
        os.path.join(build_path, "vpmem_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--golden", os.path.join(HERE, "golden.json"),
        "--out", os.path.join(build_path, "out"),
    ]
    if args.record_golden:
        cmd.append("--record-golden")
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
