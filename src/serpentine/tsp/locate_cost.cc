#include "serpentine/tsp/locate_cost.h"

#include <algorithm>
#include <typeinfo>
#include <utility>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp {

LocateCostSoA::LocateCostSoA(const tape::LocateModel& model,
                             std::vector<tape::SegmentId> out_positions,
                             std::vector<tape::SegmentId> in_positions)
    : n_(static_cast<int>(out_positions.size())),
      model_(&model),
      out_seg_(std::move(out_positions)),
      in_seg_(std::move(in_positions)) {
  SERPENTINE_CHECK_EQ(out_seg_.size(), in_seg_.size());
  // The kernel replays Dlt4000LocateModel's arithmetic, so it is only safe
  // for exactly that type — PerturbedLocateModel and PhysicalDrive wrap a
  // Dlt4000 model but answer differently, and they are distinct types.
  fast_ = typeid(model) == typeid(tape::Dlt4000LocateModel);
  if (!fast_) return;

  const auto& dlt = static_cast<const tape::Dlt4000LocateModel&>(model);
  const tape::TapeGeometry& g = dlt.geometry();
  const tape::DriveTimings& t = dlt.timings();
  read_seconds_per_section_ = t.read_seconds_per_section;
  scan_seconds_per_section_ = t.scan_seconds_per_section;
  scan_overhead_seconds_ = t.scan_overhead_seconds;
  track_switch_seconds_ = t.track_switch_seconds;
  reversal_penalty_seconds_ = t.reversal_penalty_seconds;

  out_track_.resize(n_);
  in_track_.resize(n_);
  out_rsec_.resize(n_);
  in_rsec_.resize(n_);
  out_ppos_.resize(n_);
  in_ppos_.resize(n_);
  in_kp_ppos_.resize(n_);
  in_kp_read_seconds_.resize(n_);
  out_forward_.resize(n_);
  read_forward_end_.resize(n_);
  read_forward_begin_.resize(n_);
  const int sections = g.sections_per_track();
  for (int c = 0; c < n_; ++c) {
    const tape::SegmentId src = out_seg_[c];
    const tape::TapeGeometry::Locus s = g.LocusOf(src);
    out_track_[c] = s.track;
    out_rsec_[c] = s.reading_section;
    out_ppos_[c] = s.position;
    out_forward_[c] = g.IsForwardTrack(s.track) ? 1 : 0;
    // Reading sections grow with the segment number along a track, so
    // case 1's "same track, dst >= src, r_d <= r_s + 2" is one segment
    // range per source and one per destination.
    read_forward_end_[c] =
        s.reading_section + 3 < sections
            ? g.KeyPointSegment(s.track, s.reading_section + 3) - 1
            : g.track_start(s.track + 1) - 1;

    const tape::SegmentId dst = in_seg_[c];
    const tape::TapeGeometry::Locus d = g.LocusOf(dst);
    const int track_d = d.track;
    const int r_d = d.reading_section;
    const double p_d = d.position;
    in_track_[c] = track_d;
    in_rsec_[c] = r_d;
    in_ppos_[c] = p_d;
    read_forward_begin_[c] = g.KeyPointSegment(track_d, std::max(0, r_d - 2));
    // Key point two before the destination, clamped to the beginning of
    // the track (locate_model.cc PlanLocate), and its read-forward leg.
    const int r_kp = std::max(0, r_d - 1);
    const double p_kp = g.KeyPointPhysical(track_d, r_kp);
    in_kp_ppos_[c] = p_kp;
    in_kp_read_seconds_[c] =
        std::abs(p_d - p_kp) * read_seconds_per_section_;
  }
}

}  // namespace serpentine::tsp
