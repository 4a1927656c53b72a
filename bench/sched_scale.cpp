// sched_scale: schedule-construction wall-clock at online batch sizes.
//
// The paper's CPU figure (Fig 6) stops at 2048 requests; this sweep
// carries the scalable builders to the 100k-request regime the SoA cost
// core, partitioned LOSS, and incremental Or-opt target, and times the
// incremental Or-opt against the reference full sweep on the same
// schedule (verifying bit-identical results while it is at it).
//
//   sched_scale [--max-n=N] [--oropt-n=N]
//
//     --max-n=N    largest batch size in the sweep (default 100000;
//                  ci.sh's perf smoke uses 10000)
//     --oropt-n=N  batch size of the sweep-vs-incremental Or-opt
//                  comparison (default 10000; 0 disables)
//
// Machine-readable records append to SERPENTINE_BENCH_JSON (figure
// "sched_scale"; run_benches.sh points it at BENCH_sched_cpu.json):
// per-algorithm build times at each N, each with the schedule's
// estimate_s and its read_bound_ratio (estimate over the READ bound from
// the batch's head: locate to BOT, read the tape, rewind), the two Or-opt
// times, and an "oropt-speedup-x" record whose wall_seconds field is the
// sweep/incremental ratio. Exits nonzero on any scheduling failure,
// non-finite estimate, dropped request, build above the READ bound,
// loss-mt-oropt estimate above sort's, or sweep/incremental divergence —
// which is what lets ci.sh use a 10k run as its perf and schedule-quality
// gate.
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/local_search.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

namespace {

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

int Fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "sched_scale: %s (%s)\n", what, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int max_n = 100000;
  int oropt_n = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-n=", 8) == 0) {
      max_n = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--oropt-n=", 10) == 0) {
      oropt_n = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr, "usage: %s [--max-n=N] [--oropt-n=N]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader("sched_scale",
                     "Schedule-construction wall-clock, 1k..100k requests "
                     "(beyond Fig 6's 2048), plus incremental-vs-sweep "
                     "Or-opt at one batch size.");
  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  const tape::SegmentId total = model.geometry().total_segments();
  bench::TimingRecorder recorder("sched_scale");
  const sched::Registry& registry = sched::Registry::Default();

  // Dense LOSS is O(n²) space-free but O(n²·log n)-ish time on the lazy
  // core; it stays in the sweep only while quadratic is affordable.
  constexpr int kDenseLossCap = 10000;
  struct Algo {
    const char* name;
    int cap;  // largest N this builder runs at
  };
  const Algo algos[] = {
      {"sort", 1 << 30},       {"sltf", 1 << 30},
      {"loss", kDenseLossCap}, {"sparse-loss", 1 << 30},
      {"loss-mt", 1 << 30},    {"loss-mt-oropt", 1 << 30},
  };

  // First schedule-quality violation; reported after the table prints.
  std::string violation;
  Table table;
  table.SetHeader(
      {"N", "algorithm", "build_s", "estimate_s", "read_bound_ratio"});
  for (int n : {1000, 3000, 10000, 30000, 100000}) {
    if (n > max_n) continue;
    Lrand48 rng(42 + n);
    tape::SegmentId initial = rng.NextBounded(total);
    std::vector<sched::Request> batch =
        sim::GenerateUniformRequests(rng, n, total);
    const double read_bound = sched::ReadBoundSeconds(model, initial);
    double sort_estimate = 0.0;
    for (const Algo& algo : algos) {
      if (n > algo.cap) continue;
      const sched::RegistryEntry* entry = registry.Find(algo.name);
      if (entry == nullptr) return Fail("scheduler not registered", algo.name);
      auto begin = std::chrono::steady_clock::now();
      auto schedule = entry->build(model, initial, batch, entry->options);
      double wall = Seconds(begin);
      if (!schedule.ok()) {
        return Fail("build failed", schedule.status().ToString());
      }
      if (schedule->order.size() != batch.size()) {
        return Fail("schedule dropped requests", algo.name);
      }
      double estimate = sched::EstimateScheduleSeconds(model, *schedule);
      if (!std::isfinite(estimate) || estimate < 0.0) {
        return Fail("non-finite schedule estimate", algo.name);
      }
      const double ratio = estimate / read_bound;
      char extra[96];
      std::snprintf(extra, sizeof(extra),
                    ",\"estimate_s\":%.3f,\"read_bound_ratio\":%.6f",
                    estimate, ratio);
      recorder.Record(algo.name, n, 1, wall, extra);
      table.AddRow({Table::Int(n), algo.name, Table::Num(wall, 3),
                    Table::Num(estimate, 1), Table::Num(ratio, 4)});
      const std::string where =
          std::string(algo.name) + " at N=" + std::to_string(n);
      if (ratio > 1.0 && violation.empty()) {
        violation = "schedule exceeds the READ bound: " + where;
      }
      if (std::strcmp(algo.name, "sort") == 0) sort_estimate = estimate;
      if (std::strcmp(algo.name, "loss-mt-oropt") == 0 &&
          estimate > sort_estimate && violation.empty()) {
        violation = "estimate above sort's: " + where;
      }
    }
  }
  table.Print();
  if (!violation.empty()) return Fail("schedule quality gate", violation);

  if (oropt_n > 0) {
    // Same schedule, both Or-opt implementations: the incremental search
    // must reproduce the sweep's result bit for bit, several times faster.
    Lrand48 rng(4242);
    tape::SegmentId initial = rng.NextBounded(total);
    std::vector<sched::Request> batch =
        sim::GenerateUniformRequests(rng, oropt_n, total);
    const sched::RegistryEntry* entry =
        registry.Find(oropt_n <= kDenseLossCap ? "loss" : "loss-mt");
    auto schedule = entry->build(model, initial, batch, entry->options);
    if (!schedule.ok()) {
      return Fail("or-opt base build failed", schedule.status().ToString());
    }
    sched::LocalSearchOptions options;

    // Min-of-3 repetitions on fresh copies: the ratio below feeds a CI
    // floor, so shave scheduler-noise outliers off both sides equally.
    constexpr int kReps = 3;
    sched::Schedule by_sweep;
    sched::Schedule by_incremental;
    sched::LocalSearchStats sweep;
    sched::LocalSearchStats incremental;
    double sweep_wall = 0.0;
    double incremental_wall = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      by_sweep = *schedule;
      auto begin = std::chrono::steady_clock::now();
      sweep = sched::ImproveScheduleSweep(model, &by_sweep, options);
      double wall = Seconds(begin);
      if (rep == 0 || wall < sweep_wall) sweep_wall = wall;

      by_incremental = *schedule;
      begin = std::chrono::steady_clock::now();
      incremental = sched::ImproveSchedule(model, &by_incremental, options);
      wall = Seconds(begin);
      if (rep == 0 || wall < incremental_wall) incremental_wall = wall;

      if (by_sweep.order != by_incremental.order) {
        return Fail("incremental Or-opt diverged from the sweep",
                    "rep " + std::to_string(rep));
      }
    }

    if (by_sweep.order != by_incremental.order ||
        sweep.moves != incremental.moves ||
        sweep.seconds_saved != incremental.seconds_saved) {
      return Fail("incremental Or-opt diverged from the sweep",
                  std::to_string(sweep.moves) + " vs " +
                      std::to_string(incremental.moves) + " moves");
    }
    double ratio = incremental_wall > 0 ? sweep_wall / incremental_wall : 0;
    recorder.Record("oropt-sweep", oropt_n, 1, sweep_wall);
    recorder.Record("oropt-incremental", oropt_n, 1, incremental_wall);
    recorder.Record("oropt-speedup-x", oropt_n, 1, ratio);
    std::printf(
        "\nOr-opt at N=%d: sweep %.3f s, incremental %.3f s (%.1fx), "
        "%d moves / %.1f s saved, identical orders, %lld vs %lld edge "
        "evaluations\n",
        oropt_n, sweep_wall, incremental_wall, ratio, sweep.moves,
        sweep.seconds_saved, static_cast<long long>(sweep.edge_evaluations),
        static_cast<long long>(incremental.edge_evaluations));
  }
  return 0;
}
