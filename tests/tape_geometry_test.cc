#include "serpentine/tape/geometry.h"

#include <gtest/gtest.h>

#include "serpentine/tape/params.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tape {
namespace {

TapeGeometry Dlt4000(int32_t seed = 1) {
  return TapeGeometry::Generate(Dlt4000TapeParams(), seed);
}

TEST(TapeGeometryTest, CapacityMatchesPaperTape) {
  TapeGeometry g = Dlt4000();
  // The paper's tape held 622,102 segments of 32 KB (~20 GB). Jitter makes
  // each cartridge differ slightly.
  EXPECT_GT(g.total_segments(), 615000);
  EXPECT_LT(g.total_segments(), 634000);
  EXPECT_EQ(g.num_tracks(), 64);
  EXPECT_EQ(g.sections_per_track(), 14);
}

TEST(TapeGeometryTest, GenerationIsDeterministic) {
  TapeGeometry a = Dlt4000(7), b = Dlt4000(7);
  EXPECT_EQ(a.total_segments(), b.total_segments());
  for (int t = 0; t < a.num_tracks(); ++t) {
    EXPECT_EQ(a.track_start(t), b.track_start(t));
    for (int s = 0; s < a.sections_per_track(); ++s) {
      EXPECT_EQ(a.section_segments(t, s), b.section_segments(t, s));
      EXPECT_DOUBLE_EQ(a.section_boundary(t, s), b.section_boundary(t, s));
    }
  }
}

TEST(TapeGeometryTest, DifferentSeedsProduceDifferentTapes) {
  TapeGeometry a = Dlt4000(1), b = Dlt4000(2);
  // "Tracks have differing lengths" across cartridges: at least some key
  // points must differ.
  int differing = 0;
  for (int t = 0; t < a.num_tracks(); ++t)
    for (int r = 0; r < a.sections_per_track(); ++r)
      if (a.KeyPointSegment(t, r) != b.KeyPointSegment(t, r)) ++differing;
  EXPECT_GT(differing, a.num_tracks() * a.sections_per_track() / 2);
}

TEST(TapeGeometryTest, TrackStartsAreMonotonicAndCoverTape) {
  TapeGeometry g = Dlt4000();
  EXPECT_EQ(g.track_start(0), 0);
  for (int t = 0; t < g.num_tracks(); ++t) {
    EXPECT_GT(g.track_segments(t), 0);
    EXPECT_LT(g.track_start(t), g.track_start(t + 1));
  }
  EXPECT_EQ(g.track_start(g.num_tracks()), g.total_segments());
}

TEST(TapeGeometryTest, SectionLengthsNearNominal) {
  TapeGeometry g = Dlt4000();
  const TapeParams& p = g.params();
  for (int t = 0; t < g.num_tracks(); ++t) {
    for (int s = 0; s < g.sections_per_track(); ++s) {
      int nominal = s == g.sections_per_track() - 1
                        ? p.short_section_segments
                        : p.nominal_section_segments;
      EXPECT_GE(g.section_segments(t, s), nominal - p.section_segment_jitter);
      EXPECT_LE(g.section_segments(t, s), nominal + p.section_segment_jitter);
    }
  }
}

TEST(TapeGeometryTest, LastPhysicalSectionIsShort) {
  TapeGeometry g = Dlt4000();
  // Paper: "Sections contain approximately 704 segments, except section 13
  // is significantly shorter."
  for (int t = 0; t < g.num_tracks(); ++t) {
    EXPECT_LT(g.section_segments(t, 13), g.section_segments(t, 0));
  }
}

TEST(TapeGeometryTest, CoordRoundTripExhaustiveOnSampledSegments) {
  TapeGeometry g = Dlt4000();
  Lrand48 rng(3);
  for (int i = 0; i < 20000; ++i) {
    SegmentId seg = rng.NextBounded(g.total_segments());
    Coord c = g.ToCoord(seg);
    EXPECT_EQ(g.ToSegment(c), seg) << "seg=" << seg;
  }
  // Plus the boundary segments of every track.
  for (int t = 0; t < g.num_tracks(); ++t) {
    for (SegmentId seg :
         {g.track_start(t), g.track_start(t + 1) - 1}) {
      EXPECT_EQ(g.ToSegment(g.ToCoord(seg)), seg);
    }
  }
}

TEST(TapeGeometryTest, LookupsMatchALinearScanOnUnevenTracks) {
  // TrackOf and the key-point lookup start from a proportional guess;
  // tracks and sections of wildly different sizes must still resolve to
  // the bracketing start, and LocusOf must agree with the single lookups.
  TapeParams params;
  params.num_tracks = 4;
  params.sections_per_track = 3;
  auto g = TapeGeometry::FromKeyPoints(params,
                                       {{0, 5, 10},
                                        {20, 500, 900},
                                        {1020, 1021, 1022},
                                        {1050, 1060, 3000}},
                                       5000);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  for (SegmentId seg = 0; seg < g->total_segments(); ++seg) {
    int track = 0;
    while (track + 1 < g->num_tracks() && g->track_start(track + 1) <= seg) {
      ++track;
    }
    int r = 0;
    while (r + 1 < g->sections_per_track() &&
           g->KeyPointSegment(track, r + 1) <= seg) {
      ++r;
    }
    ASSERT_EQ(g->TrackOf(seg), track) << "seg=" << seg;
    ASSERT_EQ(g->ReadingSectionOf(seg), r) << "seg=" << seg;
    TapeGeometry::Locus locus = g->LocusOf(seg);
    EXPECT_EQ(locus.track, track);
    EXPECT_EQ(locus.reading_section, r);
    EXPECT_EQ(locus.position, g->PhysicalPosition(seg));
    EXPECT_EQ(g->ToSegment(g->ToCoord(seg)), seg);
  }
}

TEST(TapeGeometryTest, ForwardTrackLayout) {
  TapeGeometry g = Dlt4000();
  // The first segment written on a forward track t is (t, 0, 0).
  for (int t = 0; t < g.num_tracks(); t += 2) {
    Coord c = g.ToCoord(g.track_start(t));
    EXPECT_EQ(c.track, t);
    EXPECT_EQ(c.physical_section, 0);
    EXPECT_EQ(c.index, 0);
  }
}

TEST(TapeGeometryTest, ReverseTrackLayout) {
  TapeGeometry g = Dlt4000();
  // Paper: "the first segment written on a reverse track t' is (t', 13, k),
  // where k has a typical value of 600 or so" — the physically furthest
  // slot of the short last section.
  for (int t = 1; t < g.num_tracks(); t += 2) {
    Coord c = g.ToCoord(g.track_start(t));
    EXPECT_EQ(c.track, t);
    EXPECT_EQ(c.physical_section, 13);
    EXPECT_EQ(c.index, g.section_segments(t, 13) - 1);
    EXPECT_NEAR(c.index, 600, 60);  // "600 or so"
  }
}

TEST(TapeGeometryTest, SegmentNumbersIncreaseAlongReadingOrder) {
  TapeGeometry g = Dlt4000();
  // Within any track, key points are strictly increasing segment numbers,
  // and every segment's reading section matches its key-point interval.
  for (int t = 0; t < g.num_tracks(); ++t) {
    EXPECT_EQ(g.KeyPointSegment(t, 0), g.track_start(t));
    for (int r = 1; r < g.sections_per_track(); ++r) {
      EXPECT_GT(g.KeyPointSegment(t, r), g.KeyPointSegment(t, r - 1));
    }
  }
}

TEST(TapeGeometryTest, ReadingSectionInvolution) {
  TapeGeometry g = Dlt4000();
  for (int t : {0, 1, 30, 63}) {
    for (int s = 0; s < g.sections_per_track(); ++s) {
      EXPECT_EQ(g.PhysicalSection(t, g.ReadingSection(t, s)), s);
      if (g.IsForwardTrack(t)) {
        EXPECT_EQ(g.ReadingSection(t, s), s);
      } else {
        EXPECT_EQ(g.ReadingSection(t, s), 13 - s);
      }
    }
  }
}

TEST(TapeGeometryTest, SameCoordNearbyPhysicallyAcrossTracks) {
  TapeGeometry g = Dlt4000();
  // Paper: (t, a, b) and (t', a, b) are physically nearby whether t and t'
  // are co- or anti-directional.
  Lrand48 rng(5);
  for (int i = 0; i < 2000; ++i) {
    int a = static_cast<int>(rng.NextBounded(14));
    int t1 = static_cast<int>(rng.NextBounded(64));
    int t2 = static_cast<int>(rng.NextBounded(64));
    int max_b = std::min(g.section_segments(t1, a), g.section_segments(t2, a));
    int b = static_cast<int>(rng.NextBounded(max_b));
    double p1 = g.PhysicalPosition(g.ToSegment(Coord{t1, a, b}));
    double p2 = g.PhysicalPosition(g.ToSegment(Coord{t2, a, b}));
    // Within a couple of boundary jitters plus a few segment widths.
    EXPECT_LT(std::abs(p1 - p2), 0.2) << "a=" << a << " b=" << b;
  }
}

TEST(TapeGeometryTest, PhysicalPositionsWithinTape) {
  TapeGeometry g = Dlt4000();
  Lrand48 rng(9);
  for (int i = 0; i < 20000; ++i) {
    SegmentId seg = rng.NextBounded(g.total_segments());
    double p = g.PhysicalPosition(seg);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, g.params().physical_sections);
  }
}

TEST(TapeGeometryTest, PhysicalPositionMonotoneAlongForwardTrack) {
  TapeGeometry g = Dlt4000();
  int t = 4;
  double prev = -1.0;
  for (SegmentId seg = g.track_start(t); seg < g.track_start(t + 1);
       seg += 97) {
    double p = g.PhysicalPosition(seg);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(TapeGeometryTest, PhysicalPositionMonotoneDecreasingAlongReverseTrack) {
  TapeGeometry g = Dlt4000();
  int t = 5;
  double prev = 15.0;
  for (SegmentId seg = g.track_start(t); seg < g.track_start(t + 1);
       seg += 97) {
    double p = g.PhysicalPosition(seg);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(TapeGeometryTest, KeyPointPhysicalMatchesSegmentPosition) {
  TapeGeometry g = Dlt4000();
  for (int t : {0, 1, 17, 62, 63}) {
    for (int r = 0; r < g.sections_per_track(); ++r) {
      double via_segment = g.PhysicalPosition(g.KeyPointSegment(t, r));
      double direct = g.KeyPointPhysical(t, r);
      EXPECT_NEAR(via_segment, direct, 0.01) << "t=" << t << " r=" << r;
    }
  }
}

TEST(TapeGeometryTest, SequentialSpanSingleSegment) {
  TapeGeometry g = Dlt4000();
  TapeGeometry::ReadSpan span = g.SequentialSpan(1000, 1000);
  EXPECT_EQ(span.track_switches, 0);
  // One 32 KB segment is about 1/704 of a section.
  EXPECT_NEAR(span.physical_distance, 1.0 / 704, 0.001);
}

TEST(TapeGeometryTest, SequentialSpanWholeTape) {
  TapeGeometry g = Dlt4000();
  TapeGeometry::ReadSpan span =
      g.SequentialSpan(0, g.total_segments() - 1);
  EXPECT_EQ(span.track_switches, 63);
  // 64 passes over the full physical length.
  EXPECT_NEAR(span.physical_distance, 64.0 * 14.0, 1.0);
}

TEST(TapeGeometryTest, SequentialSpanAcrossOneTurnaround) {
  TapeGeometry g = Dlt4000();
  SegmentId last_of_track0 = g.track_start(1) - 1;
  TapeGeometry::ReadSpan span =
      g.SequentialSpan(last_of_track0, last_of_track0 + 1);
  EXPECT_EQ(span.track_switches, 1);
  // Both segments sit at the physical end of tape.
  EXPECT_LT(span.physical_distance, 0.05);
}

TEST(TapeGeometryTest, AllKeyPointsEnumerates) {
  TapeGeometry g = Dlt4000();
  auto kps = g.AllKeyPoints();
  ASSERT_EQ(kps.size(), 64u * 14u);
  EXPECT_EQ(kps[0].segment, 0);
  for (const auto& kp : kps) {
    EXPECT_EQ(g.KeyPointSegment(kp.track, kp.reading_section), kp.segment);
  }
}

TEST(TapeGeometryTest, Dlt7000HasMoreTracks) {
  TapeGeometry g = TapeGeometry::Generate(Dlt7000TapeParams(), 1);
  EXPECT_EQ(g.num_tracks(), 104);
  EXPECT_GT(g.total_segments(), Dlt4000().total_segments());
}

}  // namespace
}  // namespace serpentine::tape
