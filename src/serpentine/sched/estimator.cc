#include "serpentine/sched/estimator.h"

#include <algorithm>

#include "serpentine/sched/step_planner.h"

namespace serpentine::sched {

tape::SegmentId OutPosition(const tape::TapeGeometry& geometry,
                            const Request& r) {
  return std::min<tape::SegmentId>(r.segment + r.count,
                                   geometry.total_segments() - 1);
}

double EstimateScheduleSeconds(const tape::LocateModel& model,
                               const Schedule& schedule,
                               const EstimateOptions& options,
                               tape::SegmentId* final_position) {
  if (schedule.full_tape_scan) {
    if (final_position != nullptr) *final_position = 0;
    return model.FullReadAndRewindSeconds();
  }
  if (schedule.order.empty()) {
    if (final_position != nullptr) *final_position = schedule.initial_position;
    return 0.0;
  }

  StepPlanner planner(model, schedule.initial_position, options.include_reads);
  double locate_seconds = 0.0;
  double read_seconds = 0.0;
  for (const Request& r : schedule.order) {
    Step step = planner.Next(r);
    locate_seconds += step.locate_seconds;
    read_seconds += step.read_seconds;
  }
  double rewind_seconds = 0.0;
  tape::SegmentId position = planner.head();
  if (options.rewind_at_end) {
    rewind_seconds = model.RewindSeconds(position);
    position = 0;
  }
  if (final_position != nullptr) *final_position = position;
  return locate_seconds + read_seconds + rewind_seconds;
}

double ReadBoundSeconds(const tape::LocateModel& model,
                        tape::SegmentId initial) {
  return model.LocateSeconds(initial, 0) + model.FullReadAndRewindSeconds();
}

}  // namespace serpentine::sched
