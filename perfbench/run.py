#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compile|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs reuse that build. Build output goes to
standard error. The benchmark binary then runs with the same arguments and
its standard output, whose last line is the result object, is passed
through. The exit code is non-zero when the build fails, the binary fails
or it overruns its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "serve_hot", "serve_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "vbs_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
