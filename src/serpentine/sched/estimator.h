// Schedule execution-time estimation: the "essential ingredient for
// scheduling" (paper §3) — given a locate-time model, predict how long a
// candidate ordering will take to execute.
#ifndef SERPENTINE_SCHED_ESTIMATOR_H_
#define SERPENTINE_SCHED_ESTIMATOR_H_

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sched {

struct EstimateOptions {
  /// Charge a rewind to BOT after the last read (e.g. before ejecting a
  /// single-reel cartridge, paper footnote 5). READ schedules always
  /// include their rewind.
  bool rewind_at_end = false;
  /// Include data-transfer time (per-segment reads). The paper's per-locate
  /// figures are dominated by positioning; transfers add ~22 ms per 32 KB
  /// segment.
  bool include_reads = true;
};

/// Head position after servicing `r` (the paper's x_out = x+1, generalized
/// to multi-segment requests and clamped to the last segment on tape).
tape::SegmentId OutPosition(const tape::TapeGeometry& geometry,
                            const Request& r);

/// Predicted wall-clock seconds to execute `schedule` on a drive whose
/// timing follows `model`: the StepPlanner's walk of the order, summed the
/// way sim::ExecuteSchedule sums it (locate, read, rewind), so the two
/// agree bit for bit on a ModelDrive. An empty schedule costs nothing.
/// When `final_position` is set it receives the head position the walk
/// ends at (BOT after a rewind or a full-tape scan).
double EstimateScheduleSeconds(const tape::LocateModel& model,
                               const Schedule& schedule,
                               const EstimateOptions& options = {},
                               tape::SegmentId* final_position = nullptr);

/// The READ bound from `initial`: locate to BOT, read the whole tape,
/// rewind (paper §8: "for more than 1536 requests just read the entire
/// tape"). Every registry-built schedule's estimate stays at or below it.
double ReadBoundSeconds(const tape::LocateModel& model,
                        tape::SegmentId initial);

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_ESTIMATOR_H_
