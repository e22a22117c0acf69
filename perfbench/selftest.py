#!/usr/bin/env python3
"""Determinism self-test for the benchmark.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

For each workload, runs two short traced invocations of run.py at the
same seed and requires (a) both to pass every output check and (b) the
`deterministic {...}` lines to match exactly: simulated overheads,
ladder simulated cycles and every counter-based per-layer metric.
Exits 0 when all workloads pass.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def invoke(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit code %d" % proc.returncode
    result = json.loads(lines[-1])
    det = [l for l in lines if l.startswith("deterministic ")]
    if not result["correct"] or len(det) != 1:
        return None, "checks failed or no deterministic line"
    return json.loads(det[0][len("deterministic "):]), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=["spec", "serve", "attacks"])
    args = parser.parse_args()
    ok = True
    for workload in args.workload or ["spec", "serve", "attacks"]:
        first, err1 = invoke(workload, args.seed)
        second, err2 = invoke(workload, args.seed)
        if err1 or err2:
            print("FAIL %s: %s" % (workload, err1 or err2))
            ok = False
            continue
        diff = sorted(k for k in set(first) | set(second)
                      if first.get(k) != second.get(k))
        if diff:
            ok = False
            for k in diff:
                print("FAIL %s: %s differs: %r vs %r"
                      % (workload, k, first.get(k), second.get(k)))
        else:
            print("ok   %s: %d deterministic values identical"
                  % (workload, len(first)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
