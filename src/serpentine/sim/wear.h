// Tape-wear accounting. The paper's §2 argument for serpentine tape is
// endurance under random I/O: Exabyte helical media tolerates ~1,500 head
// passes where DLT is rated for 500,000 ("more than 3.5 years of
// continuous reading"). This tracker counts head passes per physical
// region of the tape while schedules execute, so policies can be compared
// by media wear as well as by time.
#ifndef SERPENTINE_SIM_WEAR_H_
#define SERPENTINE_SIM_WEAR_H_

#include <cstdint>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sim {

/// Head passes per physical region (the tape is divided into equal-width
/// physical bins; any motion across a bin counts one pass, whether
/// scanning, reading or rewinding — what matters for wear is tape over
/// head).
class WearTracker {
 public:
  /// `bins` physical regions over the tape's physical length.
  explicit WearTracker(const tape::TapeGeometry* geometry, int bins = 140);

  /// Records head motion between two physical positions.
  void RecordMotion(tape::PhysicalPos from, tape::PhysicalPos to);

  /// Replays `schedule`'s head motion step by step (sched::StepPlanner):
  /// locates record the scan leg to the key point, the read leg and the
  /// request span; streams and pass extensions record the scanned span;
  /// deliveries from the pass record nothing. An optional rewind ends it.
  void RecordSchedule(const tape::Dlt4000LocateModel& model,
                      const sched::Schedule& schedule,
                      bool rewind_at_end = false);

  /// Adds another tracker's per-bin passes and distance into this one —
  /// fleet-level wear aggregation across per-bay trackers (region i of
  /// every cartridge lands in bin i). Both trackers must use the same bin
  /// count.
  void Merge(const WearTracker& other);

  int bins() const { return static_cast<int>(passes_.size()); }
  int64_t bin_passes(int i) const { return passes_[i]; }

  /// The most-worn region's pass count — the lifetime-limiting figure.
  int64_t max_passes() const;
  /// Mean passes over all regions.
  double mean_passes() const;
  /// Total tape-length-equivalents moved (sum of |motion| / tape length).
  double full_length_equivalents() const;

  /// Fraction of the DLT rating (500,000 passes) consumed by the most-worn
  /// region.
  double life_consumed(int64_t rated_passes = 500000) const {
    return static_cast<double>(max_passes()) /
           static_cast<double>(rated_passes);
  }

 private:
  const tape::TapeGeometry* geometry_;
  double bin_width_;
  std::vector<int64_t> passes_;
  double distance_ = 0.0;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_WEAR_H_
