#include "serpentine/sim/pipeline.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where the head will be after ExecuteSchedule runs `schedule`: the
/// step planner's final head, exact on any drive honoring the fault-free
/// contract.
tape::SegmentId PredictFinalPosition(const tape::LocateModel& model,
                                     const sched::Schedule& schedule,
                                     const sched::EstimateOptions& estimate) {
  tape::SegmentId position = schedule.initial_position;
  sched::EstimateScheduleSeconds(model, schedule, estimate, &position);
  return position;
}

/// One prefetched build in flight: the pool thread fills the slot, the
/// executing thread waits on it.
struct PendingBuild {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serpentine::StatusOr<sched::Schedule> schedule{sched::Schedule{}};
  double wall_seconds = 0.0;
  std::exception_ptr error;

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace

serpentine::StatusOr<PipelineResult> RunPipelinedBatches(
    drive::Drive& drive, std::vector<std::vector<sched::Request>> batches,
    const BatchScheduleBuilder& build, const PipelineOptions& options) {
  PipelineResult result;
  if (batches.empty()) return result;
  const int n = static_cast<int>(batches.size());
  ThreadPool* pool =
      options.overlap
          ? (options.pool != nullptr ? options.pool : &ThreadPool::Shared())
          : nullptr;

  auto timed_build = [&build](int index, tape::SegmentId initial,
                              std::vector<sched::Request> requests,
                              double* wall_seconds) {
    obs::ScopedSpan span("pipeline", "build:batch" + std::to_string(index));
    const double t0 = NowSeconds();
    auto schedule = build(index, initial, std::move(requests));
    *wall_seconds = NowSeconds() - t0;
    return schedule;
  };

  result.batches.resize(n);
  double exec_start_prev = 0.0;  // modeled exec start of batch k-1
  double exec_end_prev = 0.0;    // modeled exec end of batch k-1
  double virtual_now = 0.0;      // cumulative virtual clock for trace spans

  double wall = 0.0;
  serpentine::StatusOr<sched::Schedule> schedule =
      timed_build(0, drive.Position(), std::move(batches[0]), &wall);
  bool prefetched = false;

  for (int k = 0; k < n; ++k) {
    if (!schedule.ok()) return schedule.status();
    PipelineBatchStats& stats = result.batches[k];
    stats.planned_start = schedule->initial_position;
    stats.build_wall_seconds = wall;
    stats.prefetched = prefetched;
    if (prefetched) ++result.prefetched;

    // Modeled timeline: this build launched when the previous batch
    // *started* executing if prefetched, when it *finished* otherwise.
    const double launch = k == 0 ? 0.0
                          : prefetched ? exec_start_prev
                                       : exec_end_prev;
    const double ready = launch + wall;

    // Launch batch k+1's build before executing batch k, from the
    // predicted end position of this batch.
    PendingBuild pending;
    bool launching = options.overlap && k + 1 < n;
    const tape::SegmentId predicted =
        launching
            ? PredictFinalPosition(drive.model(), *schedule, options.estimate)
            : 0;
    if (launching) {
      pool->Schedule([&pending, &timed_build, k, predicted,
                      batch = std::move(batches[k + 1])]() mutable {
        std::lock_guard<std::mutex> lock(pending.mu);
        try {
          pending.schedule = timed_build(k + 1, predicted, std::move(batch),
                                         &pending.wall_seconds);
        } catch (...) {
          pending.error = std::current_exception();
        }
        pending.done = true;
        pending.cv.notify_one();
      });
    }

    ExecutionResult exec =
        ExecuteSchedule(drive, *schedule, options.estimate);
    stats.execute_virtual_seconds = exec.total_seconds;
    obs::TraceComplete(obs::TraceClock::kVirtual, "pipeline",
                       "execute:batch" + std::to_string(k), virtual_now,
                       virtual_now + exec.total_seconds);
    virtual_now += exec.total_seconds;

    result.totals.total_seconds += exec.total_seconds;
    result.totals.locate_seconds += exec.locate_seconds;
    result.totals.read_seconds += exec.read_seconds;
    result.totals.rewind_seconds += exec.rewind_seconds;
    result.totals.locates += exec.locates;
    result.totals.segments_read += exec.segments_read;
    result.totals.final_position = exec.final_position;
    result.build_wall_seconds += wall;
    result.serial_makespan_seconds += wall + exec.total_seconds;

    const double exec_start = std::max(exec_end_prev, ready);
    exec_end_prev = exec_start + exec.total_seconds;
    exec_start_prev = exec_start;

    if (k + 1 < n) {
      if (launching) {
        pending.Wait();
        if (!pending.schedule.ok()) return pending.schedule.status();
        if (exec.final_position == predicted) {
          schedule = std::move(pending.schedule);
          wall = pending.wall_seconds;
          prefetched = true;
          continue;
        }
        // The drive ended somewhere else (non-fault-free stack): the
        // prefetched schedule is stale. Its order still holds the batch's
        // requests (the original vector was consumed by the prefetch), so
        // rebuild serially from the executed truth.
        ++result.mispredicted;
        obs::IncrementCounter("pipeline.mispredicted");
        schedule = timed_build(k + 1, exec.final_position,
                               std::move(pending.schedule->order), &wall);
      } else {
        schedule = timed_build(k + 1, exec.final_position,
                               std::move(batches[k + 1]), &wall);
      }
      prefetched = false;
    }
  }
  result.pipelined_makespan_seconds =
      options.overlap ? exec_end_prev : result.serial_makespan_seconds;

  obs::IncrementCounter("pipeline.batches", n);
  obs::IncrementCounter("pipeline.prefetched", result.prefetched);
  obs::SetGauge("pipeline.overlap_seconds", result.overlap_seconds());
  return result;
}

}  // namespace serpentine::sim
