#!/usr/bin/env python3
"""Builds the serpentine library and the perfbench binary from source, then
runs one benchmark workload (see perfbench/README.md).

  python3 perfbench/run.py --workload batch-10k --seed 1 --seconds 20 --trace 0

The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. Build output goes to stderr, so the last stdout
line is the benchmark's JSON result. Exits nonzero, without a result, when the
build fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("batch-10k", "serve-1lib", "fleet-mix", "store-rw")
# Scheduler worker threads. Host metrics are process CPU seconds, which
# equal the time a request waits on the host only with one worker; more
# workers also spread host times wider on a shared host. Thread count
# never changes modeled results (check_determinism.py).
MAX_THREADS = 1


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out / "perfbench"


def source_digest():
    """sha256 over the library and benchmark sources, so records identify
    the code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    env = dict(os.environ)
    env["SERPENTINE_THREADS"] = str(min(MAX_THREADS, os.cpu_count() or 1))
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
