#!/usr/bin/env sh
# CI entry point: build and test under each sanitizer configuration.
#
#   tools/ci.sh [plain|address|thread ...]
#
# With no arguments runs all three configurations in order. Each
# configuration gets its own build tree (build-ci-<name>) so sanitizer
# and plain objects never mix. Fails on the first configuration whose
# build or test suite fails.
#
# The thread-sanitizer pass is the one that vets the parallel experiment
# engine (ParallelFor / ShardCount); the address pass catches lifetime
# bugs in the fault-injection and recovery paths, which exercise
# rescheduling mid-batch.
#
# When clang-tidy is on PATH, a lint pass (modernize + bugprone) runs
# first over the drive and scheduler layers; it is skipped silently-ish
# on machines without clang-tidy so the sanitizer passes stay runnable
# everywhere.
set -eu

CONFIGS="${*:-plain address thread}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== lint: clang-tidy over src/serpentine/drive/ and sched/ =="
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_dir="build-ci-tidy"
  cmake -B "$tidy_dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  clang-tidy -p "$tidy_dir" \
    --checks='-*,modernize-*,bugprone-*,-modernize-use-trailing-return-type' \
    --warnings-as-errors='bugprone-*' \
    src/serpentine/drive/*.cc src/serpentine/sched/*.cc
  echo "== lint: OK =="
else
  echo "clang-tidy not on PATH; skipping the lint pass"
fi

echo "== docs lint: intra-repo links + README coverage =="
docs_fail=0
# Every intra-repo markdown link in README.md and docs/*.md must resolve
# (relative to the linking file, with a repo-root fallback).
for md in README.md docs/*.md; do
  [ -f "$md" ] || continue
  md_dir=$(dirname "$md")
  for link in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](//;s/)$//'); do
    case "$link" in
      http://*|https://*|mailto:*|"#"*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$md_dir/$target" ] && [ ! -e "$target" ]; then
      echo "error: $md links to missing file: $link" >&2
      docs_fail=1
    fi
  done
done
# Every docs page must be reachable from the README's docs index.
for doc in docs/*.md; do
  [ -f "$doc" ] || continue
  if ! grep -q "$(basename "$doc")" README.md; then
    echo "error: README.md does not reference $doc" >&2
    docs_fail=1
  fi
done
# Every source layer must be documented: each directory under
# src/serpentine/ must be named (as "<layer>/") in some docs page, so a
# new layer cannot land without the docs knowing it exists.
for dir in src/serpentine/*/; do
  layer=$(basename "$dir")
  if ! grep -q "${layer}/" docs/*.md; then
    echo "error: no docs/*.md mentions source layer ${layer}/" >&2
    docs_fail=1
  fi
done
if [ "$docs_fail" -ne 0 ]; then
  echo "== docs lint: FAILED ==" >&2
  exit 1
fi
echo "== docs lint: OK =="

for config in $CONFIGS; do
  # The plain pass builds warning-free or fails: -Werror rides in on the
  # command line, so the top-level CMakeLists.txt defaults stay untouched.
  cxx_flags=""
  case "$config" in
    plain)   sanitize="" ; cxx_flags="-Werror" ;;
    address) sanitize="address" ;;
    thread)  sanitize="thread" ;;
    *)
      echo "error: unknown configuration '$config'" \
           "(expected plain, address, or thread)" >&2
      exit 2
      ;;
  esac

  build_dir="build-ci-$config"
  echo "== $config: configure ($build_dir) =="
  cmake -B "$build_dir" -S . -DSERPENTINE_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS="$cxx_flags"
  echo "== $config: build =="
  cmake --build "$build_dir" -j "$JOBS"
  echo "== $config: test =="
  (cd "$build_dir" && ctest --output-on-failure -j "$JOBS")
  echo "== $config: OK =="

  # Perf smoke, on the unsanitized release build only: one 10k-request
  # construction sweep (sched_scale exits nonzero on crash, NaN estimates,
  # dropped requests, a build above the READ bound, loss-mt-oropt pricing
  # above sort, or sweep/incremental Or-opt divergence), then a schema
  # check over the timing records it emitted (estimate_s and
  # read_bound_ratio included).
  if [ "$config" = "plain" ]; then
    echo "== perf smoke: sched_scale --max-n=10000 ($build_dir) =="
    smoke_json="$build_dir/perf_smoke_sched_cpu.json"
    rm -f "$smoke_json"
    SERPENTINE_BENCH_JSON="$smoke_json" \
      "$build_dir/bench/sched_scale" --max-n=10000
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/validate_bench_json.py "$smoke_json"
    else
      echo "python3 not on PATH; skipping the bench JSON schema check"
    fi
    echo "== perf smoke: OK =="

    # Overload smoke: the admission/deadline/breaker sweep at smoke scale
    # (exits nonzero on conservation violations, OK-status sheds, or an
    # unbounded admitted p99), plus the schema check over its records.
    echo "== overload smoke: overload_sweep ($build_dir) =="
    overload_json="$build_dir/overload_smoke.json"
    rm -f "$overload_json"
    SERPENTINE_SCALE=smoke SERPENTINE_BENCH_JSON="$overload_json" \
      "$build_dir/bench/overload_sweep" > /dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/validate_bench_json.py "$overload_json"
    else
      echo "python3 not on PATH; skipping the bench JSON schema check"
    fi
    echo "== overload smoke: OK =="

    # Fleet smoke: the multi-library router sweep at smoke scale (exits
    # nonzero on conservation/balance violations or on the 1-library
    # determinism pin breaking), plus the schema check over its records.
    echo "== fleet smoke: fleet_sweep ($build_dir) =="
    fleet_json="$build_dir/fleet_smoke.json"
    rm -f "$fleet_json"
    SERPENTINE_SCALE=smoke SERPENTINE_BENCH_JSON="$fleet_json" \
      "$build_dir/bench/fleet_sweep" > /dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/validate_bench_json.py "$fleet_json"
    else
      echo "python3 not on PATH; skipping the bench JSON schema check"
    fi
    echo "== fleet smoke: OK =="

    # Stress smoke: the open-loop multi-tenant harness at smoke scale
    # (~2k requests per point; exits nonzero on conservation violations,
    # non-finite or out-of-order quantiles, or a missing latency knee),
    # plus the schema check over its records.
    echo "== stress smoke: stress ($build_dir) =="
    stress_json="$build_dir/stress_smoke.json"
    rm -f "$stress_json"
    SERPENTINE_SCALE=smoke SERPENTINE_BENCH_JSON="$stress_json" \
      "$build_dir/bench/stress" > /dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/validate_bench_json.py "$stress_json"
    else
      echo "python3 not on PATH; skipping the bench JSON schema check"
    fi
    echo "== stress smoke: OK =="

    # Placement smoke: the layout-loop bench (exits nonzero unless the
    # optimized layout strictly improves BOTH makespan and media life on
    # the skewed evaluation workload, and the interleaved migration
    # finishes), plus the schema check over its records.
    echo "== placement smoke: placement_sweep ($build_dir) =="
    placement_json="$build_dir/placement_smoke.json"
    rm -f "$placement_json"
    SERPENTINE_SCALE=smoke SERPENTINE_BENCH_JSON="$placement_json" \
      "$build_dir/bench/placement_sweep" > /dev/null
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/validate_bench_json.py "$placement_json"
    else
      echo "python3 not on PATH; skipping the bench JSON schema check"
    fi
    echo "== placement smoke: OK =="

    # Store smokes: the two benches that build through the store layer
    # (TertiaryStore flushes, StripedVolume batches) at smoke scale. Both
    # abort or exit nonzero on a store error.
    echo "== store smoke: store_throughput, striping ($build_dir) =="
    SERPENTINE_SCALE=smoke "$build_dir/bench/store_throughput" > /dev/null
    SERPENTINE_SCALE=smoke "$build_dir/bench/striping" > /dev/null
    echo "== store smoke: OK =="

    # Determinism gate: every modeled value of the repo benchmark must be
    # identical across 1 and 2 scheduler threads and with tracing on
    # (builds perfbench in Release under .bench_build/).
    echo "== determinism: perfbench/check_determinism.py =="
    if command -v python3 >/dev/null 2>&1; then
      python3 perfbench/check_determinism.py
    else
      echo "python3 not on PATH; skipping the determinism check"
    fi
    echo "== determinism: OK =="

    # Modeled-value pin across commits: every modeled value of every
    # perfbench workload at seeds 1 and 7919 must equal the committed
    # BENCH_perfbench.json; host metrics are reported against the
    # BENCHMARK.json bounds.
    echo "== bench diff: tools/bench_diff.py --seconds 1 =="
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/bench_diff.py --seconds 1
    else
      echo "python3 not on PATH; skipping the bench diff"
    fi
    echo "== bench diff: OK =="
  fi
done

echo "all configurations passed: $CONFIGS"
