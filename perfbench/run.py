#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds .bench_build/perfbench (CMake, Release;
the log goes to .bench_build/perfbench/build.log); later calls rebuild only
what changed. The last line the benchmark prints is one JSON object with the
keys correct, attempted, failed and metrics. --trace 1 also writes the run's
spans to .bench_build/traces/<workload>.trace.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# A run must end within 180 s; the benchmark itself ends long before this.
RUN_TIMEOUT_S = 170


def build(targets=("perfbench",)):
    """Configures the build tree when needed and builds `targets`."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        return 1
    command = [
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", TRACE_DIR,
    ]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: no result within {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
