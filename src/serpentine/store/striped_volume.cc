#include "serpentine/store/striped_volume.h"

#include <algorithm>

#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/executor.h"
#include "serpentine/util/check.h"

namespace serpentine::store {

StripedVolume::StripedVolume(const tape::TapeParams& params, int drives,
                             tape::DriveTimings timings, int32_t first_seed) {
  SERPENTINE_CHECK_GT(drives, 0);
  models_.reserve(drives);
  tape::SegmentId smallest = 0;
  for (int i = 0; i < drives; ++i) {
    models_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
        tape::TapeGeometry::Generate(params, first_seed + i), timings));
    tape::SegmentId capacity = models_[i]->geometry().total_segments();
    smallest = i == 0 ? capacity : std::min(smallest, capacity);
  }
  logical_segments_ = smallest * drives;
}

serpentine::StatusOr<StripeLocation> StripedVolume::Locate(
    tape::SegmentId logical) const {
  if (logical < 0 || logical >= logical_segments_) {
    return OutOfRangeError("logical segment off volume: " +
                           std::to_string(logical));
  }
  StripeLocation loc;
  loc.drive = static_cast<int>(logical % num_drives());
  loc.segment = logical / num_drives();
  return loc;
}

serpentine::StatusOr<StripedBatchResult> StripedVolume::ExecuteBatch(
    const std::vector<tape::SegmentId>& logical_segments,
    std::string_view scheduler, std::vector<tape::SegmentId>* head) const {
  int k = num_drives();
  std::vector<std::vector<sched::Request>> shares(k);
  for (tape::SegmentId logical : logical_segments) {
    SERPENTINE_ASSIGN_OR_RETURN(StripeLocation loc, Locate(logical));
    shares[loc.drive].push_back(sched::Request{loc.segment, 1});
  }

  std::vector<tape::SegmentId> positions(k, 0);
  if (head != nullptr && !head->empty()) {
    if (static_cast<int>(head->size()) != k) {
      return InvalidArgumentError("head vector must have one entry per drive");
    }
    positions = *head;
  }

  StripedBatchResult result;
  result.drive_seconds.resize(k, 0.0);
  result.drive_requests.resize(k, 0);
  for (int d = 0; d < k; ++d) {
    result.drive_requests[d] = static_cast<int>(shares[d].size());
    if (shares[d].empty()) continue;
    SERPENTINE_ASSIGN_OR_RETURN(
        sched::Schedule schedule,
        sched::Registry::Default().Build(*models_[d], positions[d],
                                         std::move(shares[d]), scheduler));
    // Each drive runs its share on its own stateful head; the executor's
    // final position feeds the next batch (full scans end rewound only in
    // their own accounting — an empty order leaves the head untouched,
    // matching the scan's net-zero head motion here).
    drive::ModelDrive head(*models_[d], positions[d]);
    sim::ExecutionResult executed = sim::ExecuteSchedule(head, schedule);
    result.drive_seconds[d] = executed.total_seconds;
    if (!schedule.order.empty()) positions[d] = executed.final_position;
    result.makespan_seconds =
        std::max(result.makespan_seconds, result.drive_seconds[d]);
    result.total_drive_seconds += result.drive_seconds[d];
  }
  if (head != nullptr) *head = positions;
  return result;
}

}  // namespace serpentine::store
