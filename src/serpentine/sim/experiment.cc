#include "serpentine/sim/experiment.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "serpentine/sim/executor.h"
#include "serpentine/util/check.h"
#include "serpentine/util/env.h"
#include "serpentine/util/stats.h"
#include "serpentine/util/thread_pool.h"

namespace serpentine::sim {
namespace {

/// Shard count for a trial loop: a pure function of the trial count, so the
/// shard boundaries (and therefore the merge order of the per-shard
/// accumulators) never depend on how many threads run them.
int64_t ShardCount(int64_t trials) { return std::min<int64_t>(trials, 256); }

/// Runs `fn(shard)` over [0, shards), in parallel when `can_parallelize`
/// (ParallelFor runs inline for one worker). Every shard runs exactly once
/// and writes only its own output slot.
void RunShards(int64_t shards, int requested_threads, bool can_parallelize,
               const std::function<void(int64_t)>& fn) {
  ParallelFor(&ThreadPool::Shared(), shards,
              can_parallelize ? ResolveThreadCount(requested_threads) : 1, fn);
}

}  // namespace

const std::vector<int>& PaperScheduleLengths() {
  static const std::vector<int> kLengths = {
      1,  2,  3,  4,   5,   6,   7,   8,   9,   10,   12,   16,  24,
      32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048};
  return kLengths;
}

int64_t PaperTrials(int n) {
  if (n <= 192) return 100000;
  if (n <= 256) return 25000;
  if (n <= 384) return 12000;
  if (n <= 512) return 7000;
  if (n <= 768) return 3000;
  if (n <= 1024) return 1600;
  if (n <= 1536) return 800;
  return 400;
}

int64_t PaperTrialsOpt(int n) {
  if (n <= 9) return 100000;
  if (n == 10) return 10000;
  if (n <= 12) return 100;
  return 0;
}

std::vector<sched::Request> GenerateUniformRequests(
    serpentine::Lrand48& rng, int n, tape::SegmentId total_segments) {
  std::vector<sched::Request> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(sched::Request{rng.NextBounded(total_segments), 1});
  }
  return out;
}

PointStats SimulatePoint(const tape::LocateModel& scheduling_model,
                         const tape::LocateModel& execution_model,
                         sched::Algorithm algorithm, int n, int64_t trials,
                         bool start_at_bot, int32_t seed,
                         const sched::SchedulerOptions& options,
                         const ParallelOptions& parallel) {
  SERPENTINE_CHECK_GT(trials, 0);
  tape::SegmentId total = scheduling_model.geometry().total_segments();

  // Trial t always draws from the stream DeriveRand48State(seed, t) and
  // lands in the shard s = owner of t, so the merged statistics below are
  // the same no matter how many threads ran the shards. Only the CPU-time
  // figure is a wall-clock measurement and varies run to run.
  const int64_t shards = ShardCount(trials);
  std::vector<Accumulator> shard_seconds(shards);
  std::vector<double> shard_cpu(shards, 0.0);

  RunShards(shards, parallel.threads,
            scheduling_model.SupportsConcurrentUse() &&
                execution_model.SupportsConcurrentUse(),
            [&](int64_t s) {
              serpentine::Lrand48 rng(0);
              const int64_t first = s * trials / shards;
              const int64_t last = (s + 1) * trials / shards;
              for (int64_t t = first; t < last; ++t) {
                rng.SeedState(DeriveRand48State(seed, t));
                tape::SegmentId initial =
                    start_at_bot ? 0 : rng.NextBounded(total);
                std::vector<sched::Request> requests =
                    GenerateUniformRequests(rng, n, total);

                auto begin = std::chrono::steady_clock::now();
                auto schedule = sched::BuildSchedule(
                    scheduling_model, initial, std::move(requests),
                    algorithm, options);
                auto end = std::chrono::steady_clock::now();
                shard_cpu[s] +=
                    std::chrono::duration<double>(end - begin).count();
                SERPENTINE_CHECK(schedule.ok());

                shard_seconds[s].Add(
                    ExecuteSchedule(execution_model, schedule.value(), {},
                                    &scheduling_model)
                        .total_seconds);
              }
            });

  Accumulator total_seconds;
  double cpu_seconds = 0.0;
  for (int64_t s = 0; s < shards; ++s) {
    total_seconds.Merge(shard_seconds[s]);
    cpu_seconds += shard_cpu[s];
  }

  PointStats stats;
  stats.n = n;
  stats.trials = trials;
  stats.mean_total_seconds = total_seconds.mean();
  stats.std_total_seconds = total_seconds.stddev();
  stats.mean_seconds_per_locate = total_seconds.mean() / n;
  stats.mean_schedule_cpu_seconds =
      cpu_seconds / static_cast<double>(trials);
  return stats;
}

PointStats SimulateChainedBatches(const tape::LocateModel& model,
                                  sched::Algorithm algorithm, int n,
                                  int64_t batches, int32_t seed,
                                  const sched::SchedulerOptions& options,
                                  const ParallelOptions& parallel) {
  SERPENTINE_CHECK_GT(batches, 0);
  tape::SegmentId total = model.geometry().total_segments();
  Accumulator total_seconds;
  double cpu_seconds = 0.0;
  tape::SegmentId head = 0;  // the first batch begins on a fresh mount

  // The execution loop is a serial chain (each batch starts at the
  // previous batch's final head position), so only request generation fans
  // out. Batch b draws from the stream DeriveRand48State(seed, b) — the
  // same derivation SimulatePoint uses per trial, so a single chained
  // batch reproduces the BOT-start point exactly.
  const int64_t shards = ShardCount(batches);
  std::vector<std::vector<sched::Request>> batch_requests(batches);
  RunShards(shards, parallel.threads, /*can_parallelize=*/true,
            [&](int64_t s) {
              serpentine::Lrand48 rng(0);
              const int64_t first = s * batches / shards;
              const int64_t last = (s + 1) * batches / shards;
              for (int64_t b = first; b < last; ++b) {
                rng.SeedState(DeriveRand48State(seed, b));
                batch_requests[b] = GenerateUniformRequests(rng, n, total);
              }
            });

  for (int64_t b = 0; b < batches; ++b) {
    std::vector<sched::Request> requests = std::move(batch_requests[b]);
    auto begin = std::chrono::steady_clock::now();
    auto schedule =
        sched::BuildSchedule(model, head, std::move(requests), algorithm,
                             options);
    auto end = std::chrono::steady_clock::now();
    cpu_seconds += std::chrono::duration<double>(end - begin).count();
    SERPENTINE_CHECK(schedule.ok());
    ExecutionResult result = ExecuteSchedule(model, schedule.value());
    total_seconds.Add(result.total_seconds);
    head = result.final_position;
  }

  PointStats stats;
  stats.n = n;
  stats.trials = batches;
  stats.mean_total_seconds = total_seconds.mean();
  stats.std_total_seconds = total_seconds.stddev();
  stats.mean_seconds_per_locate = total_seconds.mean() / n;
  stats.mean_schedule_cpu_seconds =
      cpu_seconds / static_cast<double>(batches);
  return stats;
}

}  // namespace serpentine::sim
