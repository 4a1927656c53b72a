#include "serpentine/tape/geometry.h"

#include <algorithm>

#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tape {

TapeGeometry TapeGeometry::Generate(const TapeParams& params, int32_t seed) {
  SERPENTINE_CHECK_GT(params.num_tracks, 0);
  SERPENTINE_CHECK_GT(params.sections_per_track, 1);
  SERPENTINE_CHECK_GT(params.nominal_section_segments,
                      2 * params.section_segment_jitter);
  SERPENTINE_CHECK_GT(params.short_section_segments,
                      2 * params.section_segment_jitter);

  TapeGeometry g;
  g.params_ = params;
  Lrand48 rng(seed);

  const int tracks = params.num_tracks;
  const int sections = params.sections_per_track;
  const double nominal_width = params.physical_sections / sections;

  g.track_start_.resize(tracks + 1);
  g.sec_len_.resize(tracks);
  g.boundary_.resize(tracks);
  g.key_segment_.resize(tracks);

  SegmentId next = 0;
  for (int t = 0; t < tracks; ++t) {
    g.track_start_[t] = next;
    auto& len = g.sec_len_[t];
    len.resize(sections);
    for (int s = 0; s < sections; ++s) {
      int nominal = (s == sections - 1) ? params.short_section_segments
                                        : params.nominal_section_segments;
      int jitter = params.section_segment_jitter > 0
                       ? static_cast<int>(rng.NextBounded(
                             2 * params.section_segment_jitter + 1)) -
                             params.section_segment_jitter
                       : 0;
      len[s] = nominal + jitter;
      next += len[s];
    }

    auto& pb = g.boundary_[t];
    pb.resize(sections + 1);
    pb[0] = 0.0;
    pb[sections] = params.physical_sections;
    for (int s = 1; s < sections; ++s) {
      double jitter =
          (rng.NextDouble() * 2.0 - 1.0) * params.boundary_jitter;
      pb[s] = nominal_width * s + jitter;
    }
    // Jitter is small relative to the section width, but enforce strict
    // monotonicity anyway so downstream interpolation never divides by a
    // non-positive width.
    for (int s = 1; s <= sections; ++s)
      SERPENTINE_CHECK_LT(pb[s - 1], pb[s]);

    // Key points: cumulative reading-order section lengths. On reverse
    // tracks reading order visits physical sections high-to-low.
    auto& ks = g.key_segment_[t];
    ks.resize(sections);
    SegmentId at = g.track_start_[t];
    for (int r = 0; r < sections; ++r) {
      ks[r] = at;
      at += len[g.PhysicalSection(t, r)];
    }
    SERPENTINE_CHECK_EQ(at, next);
  }
  g.track_start_[tracks] = next;
  g.total_segments_ = next;
  g.BuildSpanTable();
  return g;
}

serpentine::StatusOr<TapeGeometry> TapeGeometry::FromKeyPoints(
    const TapeParams& params,
    const std::vector<std::vector<SegmentId>>& key_segments,
    SegmentId total_segments) {
  const int tracks = params.num_tracks;
  const int sections = params.sections_per_track;
  if (static_cast<int>(key_segments.size()) != tracks) {
    return InvalidArgumentError("expected one key-point row per track");
  }
  for (const auto& row : key_segments) {
    if (static_cast<int>(row.size()) != sections) {
      return InvalidArgumentError("expected one key point per section");
    }
  }
  if (key_segments[0][0] != 0) {
    return InvalidArgumentError("track 0 must start at segment 0");
  }

  TapeGeometry g;
  g.params_ = params;
  g.total_segments_ = total_segments;
  g.track_start_.resize(tracks + 1);
  g.sec_len_.resize(tracks);
  g.boundary_.resize(tracks);
  g.key_segment_ = key_segments;

  const double nominal_width = params.physical_sections / sections;
  for (int t = 0; t < tracks; ++t) {
    g.track_start_[t] = key_segments[t][0];
    SegmentId track_end =
        t + 1 < tracks ? key_segments[t + 1][0] : total_segments;
    auto& len = g.sec_len_[t];
    len.resize(sections);
    for (int r = 0; r < sections; ++r) {
      SegmentId next =
          r + 1 < sections ? key_segments[t][r + 1] : track_end;
      int64_t section_len = next - key_segments[t][r];
      if (section_len <= 0) {
        return InvalidArgumentError(
            "key points must be strictly increasing (track " +
            std::to_string(t) + ", section " + std::to_string(r) + ")");
      }
      len[g.PhysicalSection(t, r)] = static_cast<int>(section_len);
    }
    auto& pb = g.boundary_[t];
    pb.resize(sections + 1);
    for (int s = 0; s <= sections; ++s) pb[s] = nominal_width * s;
  }
  g.track_start_[tracks] = total_segments;
  g.BuildSpanTable();
  return g;
}

int TapeGeometry::TrackOf(SegmentId seg) const {
  SERPENTINE_CHECK_GE(seg, 0);
  SERPENTINE_CHECK_LT(seg, total_segments_);
  // Tracks hold nearly equal segment counts, so the proportional guess is
  // at most a step or two off; walk to the track whose span holds `seg`.
  int t = static_cast<int>(seg * params_.num_tracks / total_segments_);
  while (track_start_[t] > seg) --t;
  while (track_start_[t + 1] <= seg) ++t;
  return t;
}

int TapeGeometry::ReadingSectionOnTrack(int track, SegmentId seg) const {
  // Sections hold nearly equal segment counts: guess proportionally, then
  // walk to the key points that bracket `seg`.
  const auto& ks = key_segment_[track];
  const int sections = params_.sections_per_track;
  int r = static_cast<int>((seg - ks[0]) * sections / track_segments(track));
  r = std::min(r, sections - 1);
  while (ks[r] > seg) --r;
  while (r + 1 < sections && ks[r + 1] <= seg) ++r;
  return r;
}

int TapeGeometry::ReadingSectionOf(SegmentId seg) const {
  return ReadingSectionOnTrack(TrackOf(seg), seg);
}

Coord TapeGeometry::ToCoord(SegmentId seg) const {
  int t = TrackOf(seg);
  const auto& ks = key_segment_[t];
  int r = ReadingSectionOnTrack(t, seg);
  int p = PhysicalSection(t, r);
  int64_t offset = seg - ks[r];
  int len = sec_len_[t][p];
  SERPENTINE_CHECK_LT(offset, len);
  Coord c;
  c.track = t;
  c.physical_section = p;
  c.index = IsForwardTrack(t) ? static_cast<int>(offset)
                              : len - 1 - static_cast<int>(offset);
  return c;
}

SegmentId TapeGeometry::ToSegment(const Coord& c) const {
  SERPENTINE_CHECK_GE(c.track, 0);
  SERPENTINE_CHECK_LT(c.track, params_.num_tracks);
  SERPENTINE_CHECK_GE(c.physical_section, 0);
  SERPENTINE_CHECK_LT(c.physical_section, params_.sections_per_track);
  int len = sec_len_[c.track][c.physical_section];
  SERPENTINE_CHECK_GE(c.index, 0);
  SERPENTINE_CHECK_LT(c.index, len);
  int r = ReadingSection(c.track, c.physical_section);
  int64_t offset =
      IsForwardTrack(c.track) ? c.index : len - 1 - c.index;
  return key_segment_[c.track][r] + offset;
}

PhysicalPos TapeGeometry::KeyPointPhysical(int track,
                                           int reading_section) const {
  int p = PhysicalSection(track, reading_section);
  return IsForwardTrack(track) ? boundary_[track][p]
                               : boundary_[track][p + 1];
}

PhysicalPos TapeGeometry::PhysicalPosition(SegmentId seg) const {
  return LocusOf(seg).position;
}

TapeGeometry::Locus TapeGeometry::LocusOf(SegmentId seg) const {
  return LocusOnTrack(TrackOf(seg), seg);
}

TapeGeometry::Locus TapeGeometry::LocusOnTrack(int track,
                                               SegmentId seg) const {
  const auto& ks = key_segment_[track];
  int r = ReadingSectionOnTrack(track, seg);
  int p = PhysicalSection(track, r);
  int64_t offset = seg - ks[r];
  int len = sec_len_[track][p];
  SERPENTINE_CHECK_LT(offset, len);
  double lo = boundary_[track][p];
  double hi = boundary_[track][p + 1];
  // The head sits at the reading edge of the segment's slot: the low edge
  // on forward tracks, the high edge on reverse tracks.
  double frac = IsForwardTrack(track)
                    ? static_cast<double>(offset) / len
                    : static_cast<double>(len - static_cast<int>(offset)) /
                          len;
  Locus locus;
  locus.track = track;
  locus.reading_section = r;
  locus.position = lo + frac * (hi - lo);
  return locus;
}

void TapeGeometry::BuildSpanTable() {
  through_track_distance_.resize(params_.num_tracks);
  for (int t = 0; t < params_.num_tracks; ++t) {
    double end = IsForwardTrack(t) ? params_.physical_sections : 0.0;
    through_track_distance_[t] =
        std::abs(end - LocusOnTrack(t, track_start_[t]).position);
  }
}

TapeGeometry::ReadSpan TapeGeometry::SequentialSpan(SegmentId from,
                                                    SegmentId to) const {
  SERPENTINE_CHECK_LE(from, to);
  ReadSpan span;
  int t0 = TrackOf(from);
  int t1 = TrackOf(to);
  span.track_switches = t1 - t0;
  // The partial distance on track t: from `a` (or the track start) to past
  // `b` (or the far edge of the track, where reading runs off its end:
  // the high physical edge on forward tracks, BOT on reverse tracks).
  auto on_track = [&](int t, SegmentId a, SegmentId b) {
    double start = LocusOnTrack(t, a).position;
    double end = b + 1 < track_start_[t + 1]
                     ? LocusOnTrack(t, b + 1).position
                     : (IsForwardTrack(t) ? params_.physical_sections : 0.0);
    return std::abs(end - start);
  };
  // Tracks are summed in order, as a per-track walk would sum them; every
  // track strictly inside the span is read whole, so its term comes from
  // the table.
  span.physical_distance +=
      on_track(t0, from, std::min(to, track_start_[t0 + 1] - 1));
  for (int t = t0 + 1; t < t1; ++t) {
    span.physical_distance += through_track_distance_[t];
  }
  if (t1 > t0) {
    span.physical_distance += on_track(t1, track_start_[t1], to);
  }
  return span;
}

std::vector<TapeGeometry::KeyPoint> TapeGeometry::AllKeyPoints() const {
  std::vector<KeyPoint> out;
  out.reserve(static_cast<size_t>(params_.num_tracks) *
              params_.sections_per_track);
  for (int t = 0; t < params_.num_tracks; ++t) {
    for (int r = 0; r < params_.sections_per_track; ++r) {
      out.push_back(KeyPoint{t, r, key_segment_[t][r],
                             KeyPointPhysical(t, r)});
    }
  }
  return out;
}

}  // namespace serpentine::tape
