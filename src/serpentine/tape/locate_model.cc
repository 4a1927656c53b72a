#include "serpentine/tape/locate_model.h"

#include <algorithm>
#include <cmath>

#include "serpentine/util/check.h"

namespace serpentine::tape {

const char* LocateCaseName(LocateCase c) {
  switch (c) {
    case LocateCase::kReadForward:
      return "read-forward";
    case LocateCase::kScanForwardCoDirectional:
      return "scan-fwd-codir";
    case LocateCase::kScanBackwardCoDirectional:
      return "scan-back-codir";
    case LocateCase::kTrackStartCoDirectional:
      return "track-start-codir";
    case LocateCase::kScanForwardAntiDirectional:
      return "scan-fwd-antidir";
    case LocateCase::kScanBackwardAntiDirectional:
      return "scan-back-antidir";
    case LocateCase::kTrackStartAntiDirectional:
      return "track-start-antidir";
  }
  return "unknown";
}

Dlt4000LocateModel::Dlt4000LocateModel(TapeGeometry geometry,
                                       DriveTimings timings)
    : geometry_(std::move(geometry)), timings_(timings) {}

Dlt4000LocateModel::Plan Dlt4000LocateModel::PlanLocate(SegmentId src,
                                                        SegmentId dst) const {
  Plan plan{};
  const TapeGeometry& g = geometry_;
  const TapeGeometry::Locus s = g.LocusOf(src);
  const TapeGeometry::Locus d = g.LocusOf(dst);
  int track_s = s.track;
  int track_d = d.track;
  int r_s = s.reading_section;
  int r_d = d.reading_section;
  double p_s = s.position;
  double p_d = d.position;

  // Case 1: forward in the same track, within the same or next two reading
  // sections — the drive stays at read speed.
  if (track_s == track_d && dst >= src && r_d <= r_s + 2) {
    plan.locate_case = LocateCase::kReadForward;
    plan.read_distance = std::abs(p_d - p_s);
    return plan;
  }

  // Otherwise: move to the key point two before the destination (the start
  // of reading section r_d - 1), clamped to the beginning of the track for
  // destinations in the first two reading sections, then read forward.
  bool to_track_start = r_d <= 1;
  int r_kp = std::max(0, r_d - 1);
  double p_kp = g.KeyPointPhysical(track_d, r_kp);

  plan.scan_distance = std::abs(p_kp - p_s);
  plan.track_change = track_s != track_d;
  // The transport was last moving in the source track's reading direction;
  // a scan leg against it needs a direction reversal.
  int src_dir = g.IsForwardTrack(track_s) ? +1 : -1;
  int scan_dir = p_kp > p_s ? +1 : (p_kp < p_s ? -1 : src_dir);
  plan.reversal = plan.scan_distance > 0.0 && scan_dir != src_dir;
  plan.read_distance = std::abs(p_d - p_kp);

  bool co_directional =
      g.IsForwardTrack(track_s) == g.IsForwardTrack(track_d);
  // "Forward" in the paper's case statements is relative to the destination
  // track's reading direction.
  int dst_dir = g.IsForwardTrack(track_d) ? +1 : -1;
  bool scan_forward = plan.scan_distance == 0.0 || scan_dir == dst_dir;
  if (to_track_start) {
    plan.locate_case = co_directional
                           ? LocateCase::kTrackStartCoDirectional
                           : LocateCase::kTrackStartAntiDirectional;
  } else if (co_directional) {
    plan.locate_case = scan_forward
                           ? LocateCase::kScanForwardCoDirectional
                           : LocateCase::kScanBackwardCoDirectional;
  } else {
    plan.locate_case = scan_forward
                           ? LocateCase::kScanForwardAntiDirectional
                           : LocateCase::kScanBackwardAntiDirectional;
  }
  return plan;
}

double Dlt4000LocateModel::LocateSeconds(SegmentId src, SegmentId dst) const {
  if (src == dst) return 0.0;
  Plan plan = PlanLocate(src, dst);
  double t = plan.read_distance * timings_.read_seconds_per_section;
  if (plan.locate_case == LocateCase::kReadForward) return t;
  t += timings_.scan_overhead_seconds +
       plan.scan_distance * timings_.scan_seconds_per_section;
  if (plan.track_change) t += timings_.track_switch_seconds;
  if (plan.reversal) t += timings_.reversal_penalty_seconds;
  return t;
}

LocateCase Dlt4000LocateModel::Classify(SegmentId src, SegmentId dst) const {
  if (src == dst) return LocateCase::kReadForward;
  return PlanLocate(src, dst).locate_case;
}

Dlt4000LocateModel::LocateBreakdown Dlt4000LocateModel::ExplainLocate(
    SegmentId src, SegmentId dst) const {
  LocateBreakdown out;
  if (src == dst) return out;
  Plan plan = PlanLocate(src, dst);
  out.locate_case = plan.locate_case;
  out.scan_distance_sections = plan.scan_distance;
  out.read_distance_sections = plan.read_distance;
  out.track_change = plan.track_change;
  out.reversal = plan.reversal;
  out.read_seconds = plan.read_distance * timings_.read_seconds_per_section;
  if (plan.locate_case != LocateCase::kReadForward) {
    out.scan_seconds =
        timings_.scan_overhead_seconds +
        plan.scan_distance * timings_.scan_seconds_per_section +
        (plan.track_change ? timings_.track_switch_seconds : 0.0) +
        (plan.reversal ? timings_.reversal_penalty_seconds : 0.0);
  }
  out.total_seconds = out.scan_seconds + out.read_seconds;
  return out;
}

double Dlt4000LocateModel::ReadSeconds(SegmentId from, SegmentId to) const {
  TapeGeometry::ReadSpan span = geometry_.SequentialSpan(from, to);
  return span.physical_distance * timings_.read_seconds_per_section +
         span.track_switches * timings_.track_switch_seconds;
}

double Dlt4000LocateModel::RewindSeconds(SegmentId from) const {
  return timings_.rewind_overhead_seconds +
         geometry_.PhysicalPosition(from) * timings_.scan_seconds_per_section;
}

PhysicalPos Dlt4000LocateModel::ScanTargetPhysical(SegmentId src,
                                                   SegmentId dst) const {
  if (src == dst) return geometry_.PhysicalPosition(dst);
  Plan plan = PlanLocate(src, dst);
  if (plan.locate_case == LocateCase::kReadForward) {
    return geometry_.PhysicalPosition(dst);
  }
  int track_d = geometry_.TrackOf(dst);
  int r_kp = std::max(0, geometry_.ReadingSectionOf(dst) - 1);
  return geometry_.KeyPointPhysical(track_d, r_kp);
}

double Dlt4000LocateModel::TransferSeconds(int64_t bytes) const {
  return static_cast<double>(bytes) /
         (timings_.megabytes_per_second * 1024.0 * 1024.0);
}

double LocateModel::FullReadAndRewindSeconds() const {
  SegmentId last = geometry().total_segments() - 1;
  return ReadSeconds(0, last) + RewindSeconds(last);
}

namespace {

TapeGeometry MakeDegenerateGeometry(SegmentId total_segments) {
  TapeParams p;
  p.num_tracks = 1;
  p.sections_per_track = 14;
  // Split the capacity evenly across sections (remainder discarded: the
  // helical model only needs total_segments to be approximately right).
  int per_section =
      static_cast<int>(std::max<SegmentId>(64, total_segments / 14));
  p.nominal_section_segments = per_section;
  p.short_section_segments = per_section;
  p.section_segment_jitter = 0;
  p.boundary_jitter = 0.0;
  return TapeGeometry::Generate(p, /*seed=*/0);
}

}  // namespace

HelicalLocateModel::HelicalLocateModel(SegmentId total_segments,
                                       double overhead_seconds,
                                       double seconds_per_segment,
                                       double transfer_seconds_per_segment)
    : overhead_seconds_(overhead_seconds),
      seconds_per_segment_(seconds_per_segment),
      transfer_seconds_per_segment_(transfer_seconds_per_segment),
      geometry_(MakeDegenerateGeometry(total_segments)) {}

double HelicalLocateModel::LocateSeconds(SegmentId src, SegmentId dst) const {
  if (src == dst) return 0.0;
  return overhead_seconds_ +
         seconds_per_segment_ * static_cast<double>(std::llabs(dst - src));
}

double HelicalLocateModel::ReadSeconds(SegmentId from, SegmentId to) const {
  SERPENTINE_CHECK_LE(from, to);
  return transfer_seconds_per_segment_ * static_cast<double>(to - from + 1);
}

double HelicalLocateModel::RewindSeconds(SegmentId from) const {
  return overhead_seconds_ +
         seconds_per_segment_ * static_cast<double>(from);
}

}  // namespace serpentine::tape
