#!/usr/bin/env python3
"""Diffs the repository benchmark against its committed record.

    python3 tools/bench_diff.py [--seconds N]
    python3 tools/bench_diff.py --write [--seconds N]   # rewrite the record

Runs every perfbench workload through perfbench/run.py at seed 1 and the
held-out seed 7919 and compares each run with BENCH_perfbench.json at the
repository root:

- modeled values: every value of the run's {"record":"modeled"} line must
  equal the recorded one exactly. Any difference fails (exit 1): a change
  that moves a modeled second rewrites the record in the same commit and
  names the field in CHANGES.md. The values are pinned for the recorded
  compiler and build type; when the run's differ, the report says so next
  to the moved values.
- host metrics: each end-to-end metric is reported against the recorded
  value and its bound in BENCHMARK.json (the only file read for bounds).
  Short runs on a shared host are noisy, so host figures are reported,
  not gated.

--write rewrites the record from the runs just made. Each run's
provenance names the commit it was built from, with a "-dirty" suffix
when src/ or perfbench/ differ from that commit. Standard library only.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
SEEDS = (1, 7919)
# Provenance fields that decide the modeled values' last bits.
TOOLCHAIN = ("compiler", "build_type")

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (the benchmark's workload list)


def run_workload(workload, seed, seconds):
    """One untraced perfbench/run.py run: (provenance, modeled, metrics)
    parsed from its stdout."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run failed ({out.returncode}):\n"
                 f"{out.stderr}")
    provenance = modeled = metrics = None
    for line in out.stdout.splitlines():
        if line.startswith('{"record":"provenance"'):
            provenance = json.loads(line)
        elif line.startswith('{"record":"modeled"'):
            modeled = json.loads(line)
        elif line.startswith('{"correct"'):
            metrics = {k: v["value"]
                       for k, v in json.loads(line)["metrics"].items()}
    if provenance is None or modeled is None or metrics is None:
        sys.exit(f"{workload} seed {seed}: incomplete output")
    # The number of measured rounds depends on host speed, not the model.
    modeled.pop("rounds", None)
    return provenance, modeled, metrics


def sources_dirty():
    """True when src/ or perfbench/ differ from the checked-out commit."""
    r = subprocess.run(["git", "status", "--porcelain", "--", "src",
                        "perfbench"], cwd=ROOT, capture_output=True, text=True)
    return r.returncode == 0 and bool(r.stdout.strip())


def host_report(name, now, then, spec):
    """One line comparing a host metric with the record, against its
    BENCHMARK.json bound (relative, in the metric's worse direction)."""
    if then is None or then == 0:
        return f"  {name:<20} {now:.6g} (no recorded value)"
    change = (now - then) / abs(then)
    worse = change > 0 if spec["better"] == "lower" else change < 0
    flag = ""
    if worse and abs(change) > spec["bound"]:
        flag = f"  over bound {spec['bound']:.0%}"
    return (f"  {name:<20} {now:.6g} vs {then:.6g} "
            f"({change:+.1%}){flag}")


def compare(run_, base, specs):
    """Prints one run against its recorded twin; True when no modeled
    value moved."""
    label = f"{run_['workload']} seed {run_['seed']}"
    want = base["modeled"]["values"]
    got = run_["modeled"]["values"]
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    print(f"{label}: {len(got)} modeled values "
          f"{'identical' if not moved else 'DIFFER'}")
    if moved:
        for field in TOOLCHAIN:
            now = run_["provenance"].get(field)
            then = base["provenance"].get(field)
            if now != then:
                print(f"  toolchain differs from the record: {field} "
                      f"{now!r}, recorded {then!r}")
    for k in moved:
        print(f"  MOVED {k}: {want.get(k)!r} -> {got.get(k)!r}")
    for name, spec in specs.items():
        if name in run_["metrics"]:
            print(host_report(name, run_["metrics"][name],
                              base["metrics"].get(name), spec))
    return not moved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the record from this run")
    args = parser.parse_args()

    committed = {}
    if not args.write:
        if not RECORD.exists():
            sys.exit(f"no record at {RECORD}; make one with --write")
        committed = {(r["workload"], r["seed"]): r
                     for r in json.loads(RECORD.read_text())["runs"]}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    ok = True
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            provenance, modeled, metrics = run_workload(
                workload, seed, args.seconds)
            runs.append({"workload": workload, "seed": seed,
                         "provenance": provenance, "modeled": modeled,
                         "metrics": metrics})
            if args.write:
                print(f"{workload} seed {seed}: recorded")
                continue
            base = committed.get((workload, seed))
            if base is None:
                ok = False
                print(f"{workload} seed {seed}: not in {RECORD.name}")
                continue
            ok = compare(runs[-1], base, specs) and ok
    if args.write:
        if sources_dirty():
            for r in runs:
                r["provenance"]["commit"] += "-dirty"
        RECORD.write_text(json.dumps(
            {"note": "perfbench per workload and seed: the provenance line, "
                     "the modeled values (compared exactly by "
                     "tools/bench_diff.py) and the end-to-end metrics "
                     "(host figures for reference; the provenance line "
                     "gives each run's length). Rewrite with "
                     "tools/bench_diff.py --write.",
             "runs": runs},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
