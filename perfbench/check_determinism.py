#!/usr/bin/env python3
"""Checks that every modeled (simulated-time) value of the benchmark is
bit-identical across repeated runs, scheduler thread counts, and traced vs
untraced runs.

    python3 perfbench/check_determinism.py [--seed N] [workload ...]

Each workload runs three times for one second each: one scheduler thread
untraced, two threads untraced, and the benchmark's thread count traced.
The "modeled" record each run prints must match exactly.
Exits 1 on any mismatch.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build helper)


def modeled(binary, workload, seed, threads, trace):
    env = dict(os.environ, SERPENTINE_THREADS=str(threads))
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        env=env, cwd=run.ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: run failed ({out.returncode}):\n{out.stderr}")
    for line in out.stdout.splitlines():
        if line.startswith('{"record":"modeled"'):
            return json.loads(line)["values"]
    sys.exit(f"{workload}: no modeled record")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()

    binary = run.build(run.build_dir())
    threads = min(run.MAX_THREADS, os.cpu_count() or 1)
    variants = [(1, 0), (max(2, threads), 0), (threads, 1)]
    ok = True
    for workload in args.workloads:
        base = modeled(binary, workload, args.seed, *variants[0])
        same = True
        for threads_n, trace in variants[1:]:
            other = modeled(binary, workload, args.seed, threads_n, trace)
            diff = sorted(k for k in base.keys() | other.keys()
                          if base.get(k) != other.get(k))
            if diff:
                same = False
                print(f"{workload}: threads={threads_n} trace={trace} "
                      f"differs on {', '.join(diff)}")
        ok = ok and same
        print(f"{workload}: {len(base)} modeled values "
              f"{'identical' if same else 'DIFFER'} across "
              f"(threads, trace) = {variants}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
