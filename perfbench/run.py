#!/usr/bin/env python3
"""Build the SHIFT benchmark from source and run one workload.

    python3 perfbench/run.py --workload spec|serve|attacks --seed N \
        --seconds S --trace 0|1

Run it from anywhere inside a checkout. The first call configures and
builds `perfbench` (the SHIFT libraries from src/ plus the benchmark)
under .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the benchmark's own report is all that
reaches stdout; its last line is the JSON result. A traced run writes
its Chrome trace under .bench_build/traces. The exit code is the
benchmark's: 0 only when every output check passed.
"""

import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build what changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SHIFT sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spec", "serve", "attacks"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    sys.stdout.flush()
    return subprocess.run(fixed_layout() + command).returncode


def fixed_layout():
    """Prefix that turns off address-space randomisation for the run.

    With it on, code and heap placement change per process and move
    host times by up to 10% between otherwise identical runs.
    """
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


if __name__ == "__main__":
    sys.exit(main())
