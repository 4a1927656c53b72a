// TapeGeometry: the complete logical↔physical map of one serpentine
// cartridge — per-track section lengths, physical section boundaries, and
// the key points that parameterize the locate-time model (paper §3).
#ifndef SERPENTINE_TAPE_GEOMETRY_H_
#define SERPENTINE_TAPE_GEOMETRY_H_

#include <cstdint>
#include <vector>

#include "serpentine/tape/params.h"
#include "serpentine/tape/types.h"
#include "serpentine/util/statusor.h"

namespace serpentine::tape {

/// Immutable geometry of a single tape.
///
/// Each cartridge is generated from a seed: section segment counts and
/// physical boundaries receive bounded per-tape jitter, reproducing the
/// paper's observation that "tracks have differing lengths" and that key
/// points must be measured per tape (which is what makes the wrong-key-
/// points sensitivity experiment, paper §7 / Fig 9, meaningful).
class TapeGeometry {
 public:
  /// Builds the geometry of cartridge `seed` in the given family. Equal
  /// (params, seed) pairs produce identical geometry.
  static TapeGeometry Generate(const TapeParams& params, int32_t seed);

  /// Builds a geometry from measured key points (the output of
  /// CalibrateKeyPoints): `key_segments[t][r]` is the segment number of
  /// reading-order key point r of track t, and `total_segments` is the
  /// cartridge capacity. Physical section boundaries are taken as nominal
  /// (timing probes cannot observe them directly; their jitter is a small
  /// fraction of a section). Fails if the key points are not strictly
  /// increasing or imply an empty section.
  static serpentine::StatusOr<TapeGeometry> FromKeyPoints(
      const TapeParams& params,
      const std::vector<std::vector<SegmentId>>& key_segments,
      SegmentId total_segments);

  const TapeParams& params() const { return params_; }
  int num_tracks() const { return params_.num_tracks; }
  int sections_per_track() const { return params_.sections_per_track; }

  /// Total segments on the tape (the paper's tape held 622,102).
  SegmentId total_segments() const { return total_segments_; }

  /// Logical segment number of the first segment of track `t`.
  SegmentId track_start(int track) const { return track_start_[track]; }

  /// Segments on track `t`.
  int64_t track_segments(int track) const {
    return track_start_[track + 1] - track_start_[track];
  }

  /// True for even tracks, which read toward the physical end of tape.
  bool IsForwardTrack(int track) const { return track % 2 == 0; }

  /// Track containing `seg`.
  int TrackOf(SegmentId seg) const;

  /// Full physical coordinate of `seg`.
  Coord ToCoord(SegmentId seg) const;

  /// Inverse of ToCoord.
  SegmentId ToSegment(const Coord& c) const;

  /// Segments in (track, physical_section).
  int section_segments(int track, int physical_section) const {
    return sec_len_[track][physical_section];
  }

  /// Physical position of the boundary below (track, physical_section);
  /// boundary(t, 0) == 0 and boundary(t, sections_per_track) == tape end.
  PhysicalPos section_boundary(int track, int physical_section) const {
    return boundary_[track][physical_section];
  }

  /// Reading-order index of a physical section on `track` (identity on
  /// forward tracks, 13 - physical on reverse tracks).
  int ReadingSection(int track, int physical_section) const {
    return IsForwardTrack(track)
               ? physical_section
               : params_.sections_per_track - 1 - physical_section;
  }

  /// Physical section holding reading-order section `r` of `track`.
  int PhysicalSection(int track, int reading_section) const {
    return ReadingSection(track, reading_section);  // involution
  }

  /// Reading-order section index containing `seg`.
  int ReadingSectionOf(SegmentId seg) const;

  /// Key point k_r of `track`: the logical segment number of the first
  /// segment (in reading order) of reading-order section `r`. k_0 is the
  /// beginning of the track; k_1..k_13 are the paper's 13 dips.
  SegmentId KeyPointSegment(int track, int reading_section) const {
    return key_segment_[track][reading_section];
  }

  /// Physical position of the head when located at key point k_r.
  PhysicalPos KeyPointPhysical(int track, int reading_section) const;

  /// Physical position of the head when positioned to begin reading `seg`.
  PhysicalPos PhysicalPosition(SegmentId seg) const;

  /// Track, reading-order section and physical position of `seg` from one
  /// track lookup: the same values TrackOf, ReadingSectionOf and
  /// PhysicalPosition return, bit for bit, at a third of the cost (the
  /// locate model's hot path).
  struct Locus {
    int track = 0;
    int reading_section = 0;
    PhysicalPos position = 0.0;
  };
  Locus LocusOf(SegmentId seg) const;

  /// Physical distance (section units) the head sweeps while reading from
  /// segment `from` through segment `to` inclusive, plus the number of
  /// track switches incurred. Requires from <= to.
  struct ReadSpan {
    double physical_distance = 0.0;
    int track_switches = 0;
  };
  ReadSpan SequentialSpan(SegmentId from, SegmentId to) const;

  /// All key points of the tape as (track, reading_section, segment) —
  /// the data a scheduler's model is parameterized by. Ordered by track
  /// then reading section.
  struct KeyPoint {
    int track;
    int reading_section;
    SegmentId segment;
    PhysicalPos physical;
  };
  std::vector<KeyPoint> AllKeyPoints() const;

 private:
  TapeGeometry() = default;

  /// LocusOf and ReadingSectionOf for a segment already known to lie on
  /// `track`.
  Locus LocusOnTrack(int track, SegmentId seg) const;
  int ReadingSectionOnTrack(int track, SegmentId seg) const;
  /// Fills through_track_distance_ once the layout is complete.
  void BuildSpanTable();

  TapeParams params_;
  SegmentId total_segments_ = 0;
  // track_start_[t] for t in [0, num_tracks]; last entry == total_segments_.
  std::vector<SegmentId> track_start_;
  // sec_len_[t][s]: segments in physical section s of track t.
  std::vector<std::vector<int>> sec_len_;
  // boundary_[t][s] for s in [0, sections]: physical boundary positions.
  std::vector<std::vector<PhysicalPos>> boundary_;
  // key_segment_[t][r]: logical segment at reading-order section r start.
  std::vector<std::vector<SegmentId>> key_segment_;
  // through_track_distance_[t]: physical distance of reading all of track
  // t, the term SequentialSpan adds for every track strictly inside a
  // span, computed by the same expression.
  std::vector<double> through_track_distance_;
};

}  // namespace serpentine::tape

#endif  // SERPENTINE_TAPE_GEOMETRY_H_
