// The LOSS solver (tsp/loss_solver.h) against the original full-scan
// solver (reference_loss_solver.h): every path must match city for city,
// over tie-heavy dense matrices, tape batches priced by the Dlt4000 kernel
// (where the solver prunes with a lower bound) and the forwarding fallback
// (where it scans every candidate).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "reference_loss_solver.h"
#include "serpentine/tape/locate_cache.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/locate_cost.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/loss_solver.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tsp {
namespace {

using tape::SegmentId;
using oracle::SolveReferenceLoss;

TEST(LossOracleTest, TieHeavyIntegerMatricesMatchTheReference) {
  // Costs 0..4 make nearly every loss and edge comparison a tie, so the
  // (loss, edge, scan position) and (cost, city) tie-breaks decide most
  // commits.
  int instances = 0;
  for (int n = 1; n <= 64; ++n) {
    for (int32_t seed = 1; seed <= 60; ++seed) {
      Lrand48 rng(seed * 131 + n);
      CostMatrix m = CostMatrix::Build(n, [&](int, int) {
        return static_cast<double>(rng.NextBounded(5));
      });
      ASSERT_EQ(SolveLossPath(m), SolveReferenceLoss(m))
          << "n=" << n << " seed=" << seed;
      ++instances;
    }
  }
  EXPECT_EQ(instances, 64 * 60);
}

TEST(LossOracleTest, ForcedEdgesMatchTheReference) {
  // A two-valued matrix: most caches hold one cheap edge and many equal
  // dear ones, so losses repeat and edges become forced (loss +inf) early.
  for (int n = 2; n <= 48; ++n) {
    for (int32_t seed = 1; seed <= 20; ++seed) {
      Lrand48 rng(seed * 977 + n);
      CostMatrix m = CostMatrix::Build(n, [&](int, int) {
        return rng.NextBounded(8) == 0 ? 1.0 : 100.0;
      });
      ASSERT_EQ(SolveLossPath(m), SolveReferenceLoss(m))
          << "n=" << n << " seed=" << seed;
    }
  }
}

class LossOracleTapeTest : public ::testing::Test {
 protected:
  LossOracleTapeTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  SegmentId total() const { return model_.geometry().total_segments(); }

  /// Endpoints the way the schedulers build them: city 0 is the head, city
  /// c >= 1 is a request whose in-position is its first segment and whose
  /// out-position is one past its last, clamped to the tape.
  void AddCity(SegmentId first, int64_t length, std::vector<SegmentId>* out,
               std::vector<SegmentId>* in) const {
    in->push_back(first);
    out->push_back(std::min(first + length, total() - 1));
  }

  /// Checks the solver against the reference on one batch of requests.
  void ExpectMatches(const tape::LocateModel& model, SegmentId head,
                     const std::vector<SegmentId>& firsts,
                     const std::vector<int64_t>& lengths) {
    std::vector<SegmentId> out = {head};
    std::vector<SegmentId> in = {head};
    for (size_t k = 0; k < firsts.size(); ++k) {
      AddCity(firsts[k], lengths[k], &out, &in);
    }
    LocateCostSoA costs(model, out, in);
    ASSERT_EQ(SolveLossPathOver(costs), SolveReferenceLoss(costs))
        << "cities=" << costs.size() << " head=" << head;
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(LossOracleTapeTest, UniformBatchesMatchTheReference) {
  Lrand48 rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(120));
    std::vector<SegmentId> firsts;
    std::vector<int64_t> lengths;
    for (int k = 0; k < n; ++k) {
      firsts.push_back(rng.NextBounded(total()));
      lengths.push_back(1 + rng.NextBounded(3));
    }
    ExpectMatches(model_, rng.NextBounded(total()), firsts, lengths);
  }
}

TEST_F(LossOracleTapeTest, DuplicateHeavyBatchesMatchTheReference) {
  // Few distinct segments: many zero-cost and equal-cost edges, and
  // cities whose out-position equals another's in-position.
  Lrand48 rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(90));
    const int distinct = 1 + static_cast<int>(rng.NextBounded(8));
    std::vector<SegmentId> pool;
    for (int k = 0; k < distinct; ++k) pool.push_back(rng.NextBounded(total()));
    std::vector<SegmentId> firsts;
    std::vector<int64_t> lengths;
    for (int k = 0; k < n; ++k) {
      firsts.push_back(pool[rng.NextBounded(distinct)]);
      lengths.push_back(1 + rng.NextBounded(2));
    }
    ExpectMatches(model_, pool[0], firsts, lengths);
  }
}

TEST_F(LossOracleTapeTest, ClusteredBatchesMatchTheReference) {
  // Requests packed into a few narrow bands: dense read-forward windows,
  // neighbours on adjacent tracks and key-point clamps near track starts.
  Lrand48 rng(37);
  const tape::TapeGeometry& g = model_.geometry();
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.NextBounded(150));
    const int bands = 1 + static_cast<int>(rng.NextBounded(4));
    std::vector<SegmentId> centers;
    for (int b = 0; b < bands; ++b) {
      // Half the bands start at a track start, where the key-point clamp
      // of reading sections 0 and 1 applies.
      const int track = static_cast<int>(rng.NextBounded(g.num_tracks()));
      centers.push_back(rng.NextBounded(2) == 0
                            ? g.track_start(track)
                            : rng.NextBounded(total() - 4000));
    }
    std::vector<SegmentId> firsts;
    std::vector<int64_t> lengths;
    for (int k = 0; k < n; ++k) {
      firsts.push_back(centers[rng.NextBounded(bands)] +
                       rng.NextBounded(4000));
      lengths.push_back(1 + rng.NextBounded(4));
    }
    ExpectMatches(model_, firsts[0], firsts, lengths);
  }
}

TEST_F(LossOracleTapeTest, SegmentSortedBandMatchesAndPrunes) {
  // A loss-mt fragment: 1,024 requests sorted by segment on a tenth of the
  // tape, the first one pinned as city 0.
  for (int32_t seed : {1, 7919}) {
    Lrand48 rng(seed);
    const SegmentId band = total() / 10;
    const SegmentId start = rng.NextBounded(total() - band);
    std::vector<SegmentId> firsts;
    for (int k = 0; k < 1024; ++k) {
      firsts.push_back(start + rng.NextBounded(band));
    }
    std::sort(firsts.begin(), firsts.end());
    std::vector<SegmentId> out;
    std::vector<SegmentId> in;
    for (SegmentId s : firsts) AddCity(s, 1, &out, &in);
    LocateCostSoA costs(model_, out, in);
    ASSERT_TRUE(costs.has_lower_bound());
    LossStats stats;
    ASSERT_EQ(SolveLossPathOver(costs, &stats), SolveReferenceLoss(costs))
        << "seed=" << seed;
    EXPECT_EQ(stats.iterations, 1023);
    // The bound prunes: far fewer edges priced than one pass over the
    // 1,024 x 1,024 matrix.
    EXPECT_LT(stats.edges_priced, 1024 * 1024 / 4) << "seed=" << seed;
  }
}

TEST_F(LossOracleTapeTest, CachedModelFallbackMatchesTheReference) {
  // A wrapped model has no kernel, so no bound: every search scans all
  // live candidates through the same code path.
  Lrand48 rng(53);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(100));
    std::vector<SegmentId> out = {0};
    std::vector<SegmentId> in = {0};
    for (int k = 0; k < n; ++k) {
      AddCity(rng.NextBounded(total()), 1 + rng.NextBounded(3), &out, &in);
    }
    tape::CachedLocateModel cached(model_, static_cast<int64_t>(n) * 16);
    LocateCostSoA costs(cached, out, in);
    ASSERT_FALSE(costs.has_lower_bound());
    ASSERT_EQ(SolveLossPathOver(costs), SolveReferenceLoss(costs))
        << "trial=" << trial;
  }
}

}  // namespace
}  // namespace serpentine::tsp
