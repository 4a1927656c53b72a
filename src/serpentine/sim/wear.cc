#include "serpentine/sim/wear.h"

#include <algorithm>
#include <cmath>

#include "serpentine/sched/step_planner.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {

WearTracker::WearTracker(const tape::TapeGeometry* geometry, int bins)
    : geometry_(geometry),
      bin_width_(geometry->params().physical_sections / bins),
      passes_(bins, 0) {
  SERPENTINE_CHECK_GT(bins, 0);
}

void WearTracker::RecordMotion(tape::PhysicalPos from, tape::PhysicalPos to) {
  double lo = std::min(from, to);
  double hi = std::max(from, to);
  distance_ += hi - lo;
  int first = std::clamp(static_cast<int>(lo / bin_width_), 0, bins() - 1);
  int last = std::clamp(static_cast<int>(hi / bin_width_), 0, bins() - 1);
  for (int i = first; i <= last; ++i) ++passes_[i];
}

void WearTracker::RecordSchedule(const tape::Dlt4000LocateModel& model,
                                 const sched::Schedule& schedule,
                                 bool rewind_at_end) {
  const tape::TapeGeometry& g = model.geometry();

  if (schedule.full_tape_scan) {
    // Every track sweeps the whole physical tape; the final reverse track
    // ends at BOT so the rewind is free.
    for (int t = 0; t < g.num_tracks(); ++t) {
      RecordMotion(0.0, g.params().physical_sections);
    }
    return;
  }

  sched::StepPlanner planner(model, schedule.initial_position);
  for (const sched::Request& r : schedule.order) {
    tape::SegmentId position = planner.head();
    const sched::Step step = planner.Next(r);
    double p_out = g.PhysicalPosition(planner.head());
    if (step.kind == sched::StepKind::kLocate) {
      if (r.segment != position) {
        // Scan leg to the target key point, then read-forward leg.
        double target = model.ScanTargetPhysical(position, r.segment);
        RecordMotion(g.PhysicalPosition(position), target);
        RecordMotion(target, g.PhysicalPosition(r.segment));
      }
      // The transfer itself.
      RecordMotion(g.PhysicalPosition(r.segment), p_out);
    } else if (step.scans(r)) {
      // Streaming through the gap (or past what the pass has read).
      RecordMotion(g.PhysicalPosition(step.scan_from), p_out);
    }
  }
  if (rewind_at_end) {
    RecordMotion(g.PhysicalPosition(planner.head()), 0.0);
  }
}

void WearTracker::Merge(const WearTracker& other) {
  SERPENTINE_CHECK_EQ(bins(), other.bins());
  for (int i = 0; i < bins(); ++i) passes_[i] += other.passes_[i];
  distance_ += other.distance_;
}

int64_t WearTracker::max_passes() const {
  return *std::max_element(passes_.begin(), passes_.end());
}

double WearTracker::mean_passes() const {
  double sum = 0.0;
  for (int64_t p : passes_) sum += static_cast<double>(p);
  return sum / static_cast<double>(passes_.size());
}

double WearTracker::full_length_equivalents() const {
  return distance_ / geometry_->params().physical_sections;
}

}  // namespace serpentine::sim
