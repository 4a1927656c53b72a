#include "serpentine/tsp/locate_cost.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/tape/locate_cache.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tsp {
namespace {

using tape::SegmentId;

class LocateCostSoATest : public ::testing::Test {
 protected:
  LocateCostSoATest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// Random out/in endpoint vectors of n cities each.
  void RandomEndpoints(int n, int32_t seed, std::vector<SegmentId>* out,
                       std::vector<SegmentId>* in) const {
    Lrand48 rng(seed);
    SegmentId total = model_.geometry().total_segments();
    out->clear();
    in->clear();
    for (int i = 0; i < n; ++i) {
      out->push_back(rng.NextBounded(total));
      in->push_back(rng.NextBounded(total));
    }
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(LocateCostSoATest, KernelActivatesOnDlt4000) {
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(8, 1, &out, &in);
  LocateCostSoA soa(model_, out, in);
  EXPECT_TRUE(soa.fast_kernel());
  EXPECT_TRUE(soa.thread_safe());
  EXPECT_EQ(soa.size(), 8);
}

TEST_F(LocateCostSoATest, KernelIsBitIdenticalToTheModel) {
  // The kernel claims to replay Dlt4000LocateModel::LocateSeconds exactly
  // — same expressions, same evaluation order — so every edge must match
  // with EXPECT_EQ, not EXPECT_NEAR. 128 cities x 128 cities covers the
  // case-1 fast path, track switches, key-point clamps, and reversals.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(128, 7, &out, &in);
  LocateCostSoA soa(model_, out, in);
  ASSERT_TRUE(soa.fast_kernel());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]))
          << "i=" << i << " j=" << j << " src=" << out[i] << " dst=" << in[j];
    }
  }
}

TEST_F(LocateCostSoATest, AdjacentAndIdenticalEndpointsMatch) {
  // Deliberately degenerate endpoints: src == dst (zero cost), adjacent
  // segments within one reading section (case 1), and a same-position
  // out/in pair per city.
  std::vector<SegmentId> out = {0, 100, 101, 5000, 5000};
  std::vector<SegmentId> in = {0, 100, 102, 5000, 5001};
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]));
    }
  }
}

TEST_F(LocateCostSoATest, CostForbidsSelfLoopsAndStartInEdges) {
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(6, 3, &out, &in);
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < soa.size(); ++i) {
    EXPECT_EQ(soa.cost(i, i), kInfiniteCost);
    if (i != 0) {
      EXPECT_EQ(soa.cost(i, 0), kInfiniteCost);
      EXPECT_EQ(soa.cost(0, i), soa.LocateSeconds(0, i));
    }
  }
}

TEST_F(LocateCostSoATest, WrappedModelFallsBackToForwarding) {
  // Kernel detection is by exact dynamic type: a wrapper over the Dlt4000
  // model (here the memoizing cache) must take the forwarding path even
  // though every answer it gives is the Dlt4000's.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(16, 5, &out, &in);
  tape::CachedLocateModel cached(model_, 16 * 16);
  LocateCostSoA soa(cached, out, in);
  EXPECT_FALSE(soa.fast_kernel());
  // The cache is plan-once mutable state, so the fallback inherits its
  // no-concurrency answer.
  EXPECT_FALSE(soa.thread_safe());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]));
    }
  }
}

TEST_F(LocateCostSoATest, HelicalModelUsesFallback) {
  tape::HelicalLocateModel helical(100000);
  std::vector<SegmentId> out = {0, 10, 99999, 50000};
  std::vector<SegmentId> in = {0, 20, 1, 50000};
  LocateCostSoA soa(helical, out, in);
  EXPECT_FALSE(soa.fast_kernel());
  EXPECT_TRUE(soa.thread_safe());  // helical is stateless
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), helical.LocateSeconds(out[i], in[j]));
    }
  }
}

/// Checks the LOSS solver's bound contract on every (i, j) pair of `soa`:
/// read-forward locates lie in both windows, and every other locate costs
/// at least LowerBound(j, d) >= LowerBound(d), bit for bit.
void ExpectBoundsHold(const tape::Dlt4000LocateModel& model,
                      const LocateCostSoA& soa, int* read_forward,
                      int* bounded) {
  ASSERT_TRUE(soa.has_lower_bound());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      const SegmentId src = soa.out_position(i);
      const SegmentId dst = soa.in_position(j);
      const bool in_out_window =
          dst >= src && dst <= soa.read_forward_end(i);
      const bool in_in_window =
          src >= soa.read_forward_begin(j) && src <= dst;
      // Both windows hold exactly the read-forward (case 1) locates.
      const bool case1 =
          model.Classify(src, dst) == tape::LocateCase::kReadForward;
      ASSERT_EQ(in_out_window, case1) << "src=" << src << " dst=" << dst;
      ASSERT_EQ(in_in_window, case1) << "src=" << src << " dst=" << dst;
      if (case1) {
        ++*read_forward;
        continue;
      }
      const double d = std::abs(soa.in_key(j) - soa.out_key(i));
      const double seconds = model.LocateSeconds(src, dst);
      ASSERT_LE(soa.LowerBound(d), soa.LowerBound(j, d));
      ASSERT_LE(soa.LowerBound(j, d), seconds)
          << "src=" << src << " dst=" << dst;
      ++*bounded;
    }
  }
}

TEST_F(LocateCostSoATest, LowerBoundNeverExceedsTheKernel) {
  // Random endpoints: track switches, reversals and every locate case.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(200, 17, &out, &in);
  // Equal source and destination positions (a zero-second locate).
  out.push_back(12345);
  in.push_back(12345);
  const tape::TapeGeometry& g = model_.geometry();
  for (int t = 0; t < g.num_tracks(); t += 7) {
    // Key-point clamps: destinations in reading sections 0 and 1, and
    // sources just behind them on the same track.
    for (int r = 0; r < 3; ++r) {
      const SegmentId k = g.KeyPointSegment(t, r);
      in.push_back(k);
      out.push_back(k + 1);
      in.push_back(k + 2);
      out.push_back(k > 0 ? k - 1 : 0);
    }
    // The last segments of a track, where read-forward windows end.
    const SegmentId end = g.track_start(t + 1) - 1;
    in.push_back(end);
    out.push_back(end - 3);
  }
  LocateCostSoA soa(model_, out, in);
  int read_forward = 0;
  int bounded = 0;
  ExpectBoundsHold(model_, soa, &read_forward, &bounded);
  EXPECT_GT(read_forward, soa.size());  // at least the diagonal's share
  EXPECT_GT(bounded, soa.size() * soa.size() / 2);
}

TEST_F(LocateCostSoATest, LowerBoundHoldsOnDenseBands) {
  // Dense single-band batches put many destinations in each source's
  // read-forward window and many equal key distances side by side.
  Lrand48 rng(29);
  for (int trial = 0; trial < 8; ++trial) {
    const SegmentId total = model_.geometry().total_segments();
    const SegmentId start = rng.NextBounded(total - 20000);
    std::vector<SegmentId> out;
    std::vector<SegmentId> in;
    for (int k = 0; k < 96; ++k) {
      const SegmentId s = start + rng.NextBounded(20000);
      in.push_back(s);
      out.push_back(s + 1 + rng.NextBounded(3));
    }
    LocateCostSoA soa(model_, out, in);
    int read_forward = 0;
    int bounded = 0;
    ExpectBoundsHold(model_, soa, &read_forward, &bounded);
    EXPECT_GT(read_forward, 0);
    EXPECT_GT(bounded, 0);
  }
}

TEST_F(LocateCostSoATest, FallbackHasNoBound) {
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(4, 9, &out, &in);
  tape::CachedLocateModel cached(model_, 16);
  EXPECT_FALSE(LocateCostSoA(cached, out, in).has_lower_bound());
}

TEST_F(LocateCostSoATest, ExposesEndpointPositions) {
  std::vector<SegmentId> out = {3, 40, 500};
  std::vector<SegmentId> in = {1, 41, 501};
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(soa.out_position(i), out[i]);
    EXPECT_EQ(soa.in_position(i), in[i]);
  }
}

}  // namespace
}  // namespace serpentine::tsp
