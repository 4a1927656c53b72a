// Fault-tolerant schedule execution: runs a sched::Schedule against a
// drive stack while faults (a FaultDrive decorator) perturb it, recovering
// with a bounded retry-with-backoff policy and repairing the plan
// mid-batch.
//
// Recovery semantics (see docs/robustness.md):
//   * transient read errors  -> re-read the span (retryable, backoff);
//   * locate overshoots      -> re-locate from where the head settled
//                               (retryable, backoff);
//   * drive soft resets      -> the transport rewinds to BOT; the remaining
//                               requests are *rescheduled* from the new head
//                               position by re-invoking the schedule's own
//                               algorithm (LOSS/SLTF/SCAN/... via
//                               sched::BuildSchedule);
//   * permanent media errors -> the segment is skipped and reported in
//                               abandoned_segments, and the remainder is
//                               rescheduled from the current position;
//   * retry exhaustion       -> the request is abandoned and reported.
//
// Requests are serviced by the steps sched::StepPlanner picks (locate and
// read, stream through a gap, or deliver from the pass already read),
// planned with the scheduling model; a delivery fault abandons only its
// request, and any fault that moves the head ends the current pass.
//
// This is the one code path that walks a schedule against a drive:
// sim::ExecuteSchedule, the serving core, the store's flush and the
// interleaved migration all run their schedules through it. On a
// fault-free stack (no FaultDrive, a null injector, or an all-zero
// FaultProfile) its totals equal sched::EstimateScheduleSeconds bit for
// bit, so the paper's figures are unchanged by default.
#ifndef SERPENTINE_SIM_RECOVERING_EXECUTOR_H_
#define SERPENTINE_SIM_RECOVERING_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serpentine/drive/drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/retry.h"

namespace serpentine::sim {

/// Tuning of the recovery machinery.
struct RecoveryOptions {
  /// Per-operation bounded retry-with-backoff. Backoff is charged to the
  /// virtual clock as recovery time (the drive sits idle between attempts).
  RetryPolicy retry;
  /// Mid-batch rescheduling budget per Execute() call; 0 disables
  /// rescheduling (recovery then continues the stale order).
  int max_reschedules = 8;
  /// Re-plan the remainder after a drive reset or permanent error.
  bool reschedule_after_fault = true;
  /// Options forwarded to sched::BuildSchedule when rescheduling.
  sched::SchedulerOptions scheduler_options;
  /// Execution accounting options (same meaning as for ExecuteSchedule).
  sched::EstimateOptions estimate;
};

/// ExecutionResult extended with full fault accounting. recovery_seconds is
/// included in total_seconds (faults degrade utilization), but never in
/// locate_seconds/read_seconds, which keep counting useful work only.
struct RecoveringExecutionResult : ExecutionResult {
  int64_t transient_read_errors = 0;
  int64_t locate_overshoots = 0;
  int64_t drive_resets = 0;
  int64_t permanent_errors = 0;
  /// Retry attempts actually taken (each charged one backoff interval).
  int64_t retries = 0;
  /// Ops refused fast by an open circuit breaker (a HealthDrive in the
  /// stack). Refusals consume no retry budget: the charged wait lands in
  /// breaker_wait_seconds (also counted in recovery_seconds) and the next
  /// attempt is the breaker's half-open probe.
  int64_t breaker_fast_fails = 0;
  double breaker_wait_seconds = 0.0;
  /// Successful mid-batch reschedules.
  int64_t reschedules = 0;
  /// Virtual seconds lost to faults: wasted motion, settle/reset penalties,
  /// failed read passes, and backoff waits.
  double recovery_seconds = 0.0;
  /// Requested segments that could not be serviced (permanent media errors
  /// and retry-exhausted requests), in abandonment order; one entry per
  /// abandoned request.
  std::vector<tape::SegmentId> abandoned_segments;

  /// Requests that were serviced successfully.
  int64_t requests_serviced = 0;

  /// Drive seconds after the last completion callback: the rest of a
  /// full-tape pass, a final rewind. A caller that adds every callback's
  /// step_seconds and then this has advanced its clock by the run.
  double tail_seconds = 0.0;
};

/// Executes schedules under fault injection with bounded recovery.
class RecoveringExecutor {
 public:
  /// `drive` is the stateful execution stack — typically
  /// FaultDrive(ModelDrive(model)), but any stack works and a stack with
  /// no fault layer simply never needs recovery. `scheduling_model` is the
  /// believed model: it plans every step and re-plans the remainder
  /// mid-batch (schedulers must never consult the physical drive
  /// directly). Both must outlive the executor.
  RecoveringExecutor(drive::Drive& drive,
                     const tape::LocateModel& scheduling_model,
                     RecoveryOptions options = {});

  /// Per-request completion callback. `step_seconds` is the drive time
  /// spent since the previous callback (or since Execute began), recovery
  /// included: adding each to a running clock stamps the request's
  /// completion. A full-tape scan reports its deliveries in pass order,
  /// each at the point the head passes the request's last segment. `ok`
  /// is false for abandoned requests.
  using StepCallback =
      std::function<void(const sched::Request&, double step_seconds, bool ok)>;

  /// Runs `schedule` to completion (every request serviced or abandoned).
  /// The head is first aligned, at no cost, with the schedule's planned
  /// start. A full-tape scan streams from BOT wherever the head is; a
  /// caller that models moving the head home first charges that locate
  /// itself.
  RecoveringExecutionResult Execute(const sched::Schedule& schedule) const;
  RecoveringExecutionResult Execute(const sched::Schedule& schedule,
                                    const StepCallback& on_step) const;

 private:
  drive::Drive& drive_;
  const tape::LocateModel& scheduling_model_;
  RecoveryOptions options_;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_RECOVERING_EXECUTOR_H_
