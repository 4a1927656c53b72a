// Striped tape volume: one logical address space spread round-robin over
// several cartridges, each in its own drive, serviced in parallel. The
// paper's related work covers exactly this ([DK93] "Striped tape arrays";
// [GMW95] striping in robotic libraries); striping composes with
// scheduling — each drive runs its own schedule over its share of a batch,
// and the batch finishes when the slowest drive does.
#ifndef SERPENTINE_STORE_STRIPED_VOLUME_H_
#define SERPENTINE_STORE_STRIPED_VOLUME_H_

#include <memory>
#include <string_view>
#include <vector>

#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::store {

/// Where a logical segment lives.
struct StripeLocation {
  int drive = 0;
  tape::SegmentId segment = 0;

  bool operator==(const StripeLocation&) const = default;
};

/// Result of executing one batch across the stripe.
struct StripedBatchResult {
  /// Wall-clock: all drives run in parallel, so the batch takes as long as
  /// the busiest drive.
  double makespan_seconds = 0.0;
  /// Per-drive busy seconds (positioning + transfer).
  std::vector<double> drive_seconds;
  /// Requests each drive serviced.
  std::vector<int> drive_requests;
  /// Sum of drive_seconds — the serial-equivalent work.
  double total_drive_seconds = 0.0;
};

/// A logical volume striped over K identical cartridges.
///
/// Logical segment L maps to drive L mod K, physical segment L / K
/// (block-level round robin, [DK93]'s "data striping" layout): large
/// sequential reads engage all drives, and a random batch splits ~evenly.
class StripedVolume {
 public:
  /// K cartridges in one geometry family with one drive each; cartridge i
  /// is generated from seed first_seed + i.
  StripedVolume(const tape::TapeParams& params, int drives,
                tape::DriveTimings timings, int32_t first_seed = 1);

  int num_drives() const { return static_cast<int>(models_.size()); }

  /// Logical capacity: stripe-aligned (K × the smallest cartridge).
  tape::SegmentId logical_segments() const { return logical_segments_; }

  /// Maps a logical segment to its (drive, physical segment).
  serpentine::StatusOr<StripeLocation> Locate(tape::SegmentId logical) const;

  /// The per-drive locate model, for inspection.
  const tape::Dlt4000LocateModel& model(int drive) const {
    return *models_[drive];
  }

  /// Splits a batch of logical reads across the drives, schedules each
  /// drive's share with the sched::Registry::Default() entry `scheduler`,
  /// and returns the parallel execution profile. Heads start at the
  /// per-drive positions in `head` (all 0 if empty); on return `head`
  /// holds the final positions (pass nullptr to ignore). An unknown
  /// scheduler name fails InvalidArgument at the first drive with work.
  serpentine::StatusOr<StripedBatchResult> ExecuteBatch(
      const std::vector<tape::SegmentId>& logical_segments,
      std::string_view scheduler,
      std::vector<tape::SegmentId>* head = nullptr) const;

 private:
  std::vector<std::unique_ptr<tape::Dlt4000LocateModel>> models_;
  tape::SegmentId logical_segments_ = 0;
};

}  // namespace serpentine::store

#endif  // SERPENTINE_STORE_STRIPED_VOLUME_H_
