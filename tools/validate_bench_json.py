#!/usr/bin/env python3
"""Schema check for SERPENTINE_BENCH_JSON timing records.

    tools/validate_bench_json.py FILE [FILE ...]

Each file is JSONL as written by bench::TimingRecorder: one JSON object
per line with figure/label (strings), n/trials/threads (non-negative
integers), wall_seconds (finite, non-negative number), and scale
(string). Exits nonzero, naming the offending file and line, when a line
fails to parse, a key is missing or mistyped, or a number is NaN/inf —
the cheap tripwire ci.sh and run_benches.sh run over every emitted
timing file.
"""
import json
import math
import sys

REQUIRED = {
    "figure": str,
    "label": str,
    "n": int,
    "trials": int,
    "wall_seconds": (int, float),
    "threads": int,
    "scale": str,
}

# Figure-specific extras: records whose "figure" appears here must also
# carry these keys (numbers finite and non-negative, same rules as the
# base schema). Benches remain free to emit further keys beyond these.
FIGURE_REQUIRED = {
    "fleet": {
        "libraries": int,
        "replication": int,
        "placement": str,
        "p99_response_seconds": (int, float),
        "utilization": (int, float),
        "failovers": int,
        "cartridge_mounts": int,
        "mount_seconds": (int, float),
    },
    "fleet-robot": {
        "drives": int,
        "robot_exchanges": int,
        "robot_wait_seconds": (int, float),
        "busy_seconds": (int, float),
    },
    "placement": {
        "workload": str,
        "makespan_seconds": (int, float),
        "life_consumed": (int, float),
        "max_passes": int,
        "tape_lengths": (int, float),
    },
    "placement-migration": {
        "batches": int,
        "segments_moved": int,
        "migration_seconds": (int, float),
        "foreground_p99_seconds": (int, float),
    },
    "sched_scale": {
        "estimate_s": (int, float),
        "read_bound_ratio": (int, float),
    },
    "stress": {
        "process": str,
        "tenants": int,
        "offered_rate_per_hour": (int, float),
        "throughput_per_hour": (int, float),
        "p50_response_seconds": (int, float),
        "p95_response_seconds": (int, float),
        "p99_response_seconds": (int, float),
        "p999_response_seconds": (int, float),
        "max_response_seconds": (int, float),
        "shed_rate": (int, float),
        "cache_hit_rate": (int, float),
        "coalesced_rate": (int, float),
        "utilization": (int, float),
        "fairness_jain": (int, float),
    },
}


# Records of a figure whose label starts with one of these prefixes carry
# only the base schema (sched_scale's Or-opt timing records price no
# schedule of their own).
FIGURE_EXEMPT_LABEL_PREFIXES = {
    "sched_scale": ("oropt-",),
}


def check_keys(record, schema):
    """Returns an error string, or None when every schema key conforms."""
    for key, want in schema.items():
        if key not in record:
            return f"missing key {key!r}"
        value = record[key]
        # bool is an int subclass; a true/false count is always a bug.
        if isinstance(value, bool) or not isinstance(value, want):
            return f"key {key!r} has type {type(value).__name__}"
        if isinstance(value, (int, float)) and not isinstance(value, str):
            if isinstance(value, float) and not math.isfinite(value):
                return f"key {key!r} is not finite: {value!r}"
            if value < 0:
                return f"key {key!r} is negative: {value!r}"
    return None


def validate_record(record):
    """Returns an error string, or None when the record conforms."""
    if not isinstance(record, dict):
        return "record is not a JSON object"
    problem = check_keys(record, REQUIRED)
    if problem is not None:
        return problem
    extras = FIGURE_REQUIRED.get(record["figure"])
    exempt = FIGURE_EXEMPT_LABEL_PREFIXES.get(record["figure"], ())
    if (extras is not None and record["label"] != "_total"
            and not record["label"].startswith(exempt)):
        return check_keys(record, extras)
    return None


def validate_file(path):
    errors = 0
    records = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{lineno}: unparseable JSON: {e}",
                      file=sys.stderr)
                errors += 1
                continue
            problem = validate_record(record)
            if problem is not None:
                print(f"{path}:{lineno}: {problem}", file=sys.stderr)
                errors += 1
            else:
                records += 1
    if records == 0 and errors == 0:
        print(f"{path}: no records", file=sys.stderr)
        errors += 1
    return records, errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_records = 0
    total_errors = 0
    for path in argv[1:]:
        records, errors = validate_file(path)
        total_records += records
        total_errors += errors
    if total_errors:
        print(f"validate_bench_json: {total_errors} error(s)",
              file=sys.stderr)
        return 1
    print(f"validate_bench_json: {total_records} record(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
