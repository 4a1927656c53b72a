// Schedule execution against any drive stack (ideal model, PhysicalDrive,
// metered or fault-injecting decorators), with a per-phase time breakdown.
#ifndef SERPENTINE_SIM_EXECUTOR_H_
#define SERPENTINE_SIM_EXECUTOR_H_

#include <cstdint>

#include "serpentine/drive/drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sim {

/// Outcome of executing one schedule.
struct ExecutionResult {
  double total_seconds = 0.0;
  double locate_seconds = 0.0;
  double read_seconds = 0.0;
  double rewind_seconds = 0.0;
  int64_t locates = 0;
  /// Segments the drive transferred: every request's span, plus the gaps
  /// streamed through.
  int64_t segments_read = 0;
  /// Head position after the last operation.
  tape::SegmentId final_position = 0;

  /// Fraction of the total spent transferring data (paper Fig 7's
  /// utilization).
  double utilization() const {
    return total_seconds > 0 ? read_seconds / total_seconds : 0.0;
  }
};

/// Runs `schedule` against `drive` (the stateful drive stack) through
/// RecoveringExecutor with default recovery and returns the breakdown.
/// With a PhysicalDrive at the base this is the paper's "measured"
/// execution time; with the scheduler's own model it equals the estimate
/// bit for bit. The head is first aligned (at zero cost) with the
/// schedule's planned start — schedules are built from the live head
/// position, so this is normally a no-op. Each request is serviced by the
/// step sched::StepPlanner picks: a locate and read, a stream through the
/// gap, or a delivery from the pass already read. `planning_model` picks
/// the steps (the scheduler's belief); null plans with the drive's own
/// model. A full-tape scan delivers every request after the pass. An empty
/// schedule (no requests, not a full-tape scan) executes as a no-op and
/// returns a zeroed result with final_position == initial_position. On a
/// fault-injecting stack it recovers as the executor does; use
/// RecoveringExecutor directly for the fault tallies.
ExecutionResult ExecuteSchedule(drive::Drive& drive,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options = {},
                                const tape::LocateModel* planning_model =
                                    nullptr);

/// Model shim: executes against a throwaway ModelDrive over `model`
/// (which charges exactly the model's numbers).
ExecutionResult ExecuteSchedule(const tape::LocateModel& model,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options = {},
                                const tape::LocateModel* planning_model =
                                    nullptr);

/// Percent error of an estimate against a measurement, as in Fig 8/9:
/// (estimate - measurement) / measurement × 100. Guarded against
/// zero/near-zero measurements: returns 0 when both values are ~0, and
/// ±infinity when only the measurement is.
double PercentError(double estimate, double measurement);

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_EXECUTOR_H_
