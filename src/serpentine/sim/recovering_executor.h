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
// On a fault-free stack (no FaultDrive, a null injector, or an all-zero
// FaultProfile) the executor reproduces sim::ExecuteSchedule bit for bit,
// so the paper's figures are unchanged by default; a test pins this golden
// equality.
#ifndef SERPENTINE_SIM_RECOVERING_EXECUTOR_H_
#define SERPENTINE_SIM_RECOVERING_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serpentine/drive/drive.h"
#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/drive/fault_injector.h"
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
};

/// Executes schedules under fault injection with bounded recovery.
class RecoveringExecutor {
 public:
  /// `drive` is the stateful execution stack — typically
  /// FaultDrive(ModelDrive(model)), but any stack works and a stack with
  /// no fault layer simply never needs recovery. `scheduling_model` is the
  /// believed model consulted when rescheduling mid-batch (schedulers must
  /// never consult the physical drive directly).
  RecoveringExecutor(drive::Drive& drive,
                     const tape::LocateModel& scheduling_model,
                     RecoveryOptions options = {});

  /// Model shim: builds and owns a FaultDrive(ModelDrive(`drive`)) stack.
  /// `injector` may be null, which disables fault injection entirely.
  RecoveringExecutor(const tape::LocateModel& drive,
                     const tape::LocateModel& scheduling_model,
                     drive::FaultInjector* injector, RecoveryOptions options = {});

  /// Convenience: schedule repairs consult the execution drive's model.
  RecoveringExecutor(const tape::LocateModel& drive, drive::FaultInjector* injector,
                     RecoveryOptions options = {})
      : RecoveringExecutor(drive, drive, injector, std::move(options)) {}

  /// Per-request completion callback: `at_seconds` is the virtual time
  /// offset from execution start; `ok` is false for abandoned requests.
  using StepCallback =
      std::function<void(const sched::Request&, double at_seconds, bool ok)>;

  /// Runs `schedule` to completion (every request serviced or abandoned).
  RecoveringExecutionResult Execute(const sched::Schedule& schedule) const;
  RecoveringExecutionResult Execute(const sched::Schedule& schedule,
                                    const StepCallback& on_step) const;

 private:
  RecoveringExecutionResult ExecuteFullScan(const sched::Schedule& schedule,
                                            const StepCallback& on_step) const;

  drive::Drive* drive_;  // borrowed or owned_fault_/owned_base_ below
  const tape::LocateModel& scheduling_model_;
  RecoveryOptions options_;
  // Backing stack for the model-based shim constructors. Execute() is
  // const but drives are stateful; the stack is rebuilt per-Execute state
  // anyway (position is realigned), so mutation through these is benign.
  std::unique_ptr<drive::ModelDrive> owned_base_;
  std::unique_ptr<drive::FaultDrive> owned_fault_;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_RECOVERING_EXECUTOR_H_
