#include "serpentine/sim/executor.h"

#include <cmath>
#include <limits>

#include "serpentine/drive/model_drive.h"
#include "serpentine/sim/recovering_executor.h"

namespace serpentine::sim {

ExecutionResult ExecuteSchedule(drive::Drive& drive,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options,
                                const tape::LocateModel* planning_model) {
  RecoveryOptions recovery;
  recovery.estimate = options;
  return RecoveringExecutor(
             drive, planning_model != nullptr ? *planning_model : drive.model(),
             recovery)
      .Execute(schedule);
}

ExecutionResult ExecuteSchedule(const tape::LocateModel& model,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options,
                                const tape::LocateModel* planning_model) {
  drive::ModelDrive drive(model, schedule.initial_position);
  return ExecuteSchedule(drive, schedule, options, planning_model);
}

double PercentError(double estimate, double measurement) {
  // Near-zero measurements (empty schedules, degenerate configurations)
  // must not divide to garbage: two zeros agree perfectly; a real estimate
  // against a zero measurement is infinitely wrong, signed by the miss.
  constexpr double kTiny = 1e-12;
  if (std::abs(measurement) < kTiny) {
    if (std::abs(estimate) < kTiny) return 0.0;
    return std::copysign(std::numeric_limits<double>::infinity(),
                         estimate - measurement);
  }
  return (estimate - measurement) / measurement * 100.0;
}

}  // namespace serpentine::sim
