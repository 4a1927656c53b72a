#include "serpentine/layout/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::layout {
namespace {

constexpr tape::SegmentId kTotal = 622080;

class OracleTest : public ::testing::Test {
 protected:
  OracleTest()
      : model_(kTotal),
        oracle_(LinearSeekOracle::ForModel(kTotal, 5.0, 2.5e-4, 0.0655)) {}

  tape::HelicalLocateModel model_;
  LinearSeekOracle oracle_;
};

// Mean measured tour lengths versus the closed forms. Tolerances leave
// >3.5 standard errors of headroom at each (n, trials) pair (derivation
// in docs/placement.md), so a failure signals a real divergence in the
// scheduler/executor/RNG pipeline, not sampling noise.
TEST_F(OracleTest, FifoToursMatchClosedFormWithinTwoPercent) {
  const struct {
    int64_t n;
    int64_t trials;
  } cases[] = {{64, 300}, {256, 150}, {1024, 75}};
  for (const auto& c : cases) {
    double predicted = oracle_.PredictFifoTourSeconds(c.n);
    double measured = MeasureMeanTourSeconds(model_, sched::Algorithm::kFifo,
                                             c.n, c.trials, /*seed=*/101);
    EXPECT_NEAR(measured, predicted, 0.02 * predicted)
        << "n=" << c.n << " trials=" << c.trials;
  }
}

TEST_F(OracleTest, SortedToursMatchClosedFormWithinTwoPercent) {
  const struct {
    int64_t n;
    int64_t trials;
  } cases[] = {{64, 300}, {256, 150}, {1024, 75}};
  for (const auto& c : cases) {
    double predicted = oracle_.PredictSortedTourSeconds(c.n);
    double measured = MeasureMeanTourSeconds(model_, sched::Algorithm::kSort,
                                             c.n, c.trials, /*seed=*/202);
    EXPECT_NEAR(measured, predicted, 0.02 * predicted)
        << "n=" << c.n << " trials=" << c.trials;
    // The analytics also order the policies: sorted service strictly
    // dominates FIFO on a linear-seek drive.
    EXPECT_LT(predicted, oracle_.PredictFifoTourSeconds(c.n));
  }
}

TEST_F(OracleTest, ForwardPassesFollowTheVershikKerovLaw) {
  const struct {
    int64_t n;
    int64_t trials;
  } cases[] = {{1000, 40}, {4000, 20}, {16000, 8}};
  for (const auto& c : cases) {
    double predicted = PredictForwardPasses(c.n);
    double sum = 0.0;
    for (int64_t trial = 0; trial < c.trials; ++trial) {
      Lrand48 rng;
      rng.SeedState(DeriveRand48State(303, trial));
      std::vector<double> keys(c.n);
      for (double& key : keys) key = rng.NextDouble();
      std::vector<std::vector<int32_t>> passes = ForwardPassPartition(keys);
      // Dilworth: the greedy pass count is exactly the longest strictly
      // decreasing subsequence.
      ASSERT_EQ(static_cast<int64_t>(passes.size()),
                LongestDecreasingSubsequence(keys));
      sum += static_cast<double>(passes.size());
    }
    double measured = sum / static_cast<double>(c.trials);
    EXPECT_NEAR(measured, predicted, 0.03 * predicted)
        << "n=" << c.n << " trials=" << c.trials;
  }
}

TEST_F(OracleTest, PartitionIsAValidStrictlyIncreasingCover) {
  Lrand48 rng(404);
  std::vector<double> keys(500);
  for (double& key : keys) key = rng.NextDouble();
  std::vector<std::vector<int32_t>> passes = ForwardPassPartition(keys);
  std::vector<int> covered(keys.size(), 0);
  for (const std::vector<int32_t>& pass : passes) {
    ASSERT_FALSE(pass.empty());
    for (size_t i = 0; i < pass.size(); ++i) {
      ++covered[pass[i]];
      if (i > 0) {
        // Forward pass: later in arrival order and a larger key.
        EXPECT_GT(pass[i], pass[i - 1]);
        EXPECT_GT(keys[pass[i]], keys[pass[i - 1]]);
      }
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "index " << i;
  }
}

TEST(OracleComponentsTest, LongestDecreasingSubsequenceKnownCases) {
  EXPECT_EQ(LongestDecreasingSubsequence({}), 0);
  EXPECT_EQ(LongestDecreasingSubsequence({1.0}), 1);
  EXPECT_EQ(LongestDecreasingSubsequence({1.0, 2.0, 3.0}), 1);
  EXPECT_EQ(LongestDecreasingSubsequence({3.0, 2.0, 1.0}), 3);
  EXPECT_EQ(LongestDecreasingSubsequence({3.0, 1.0, 2.0}), 2);
  EXPECT_EQ(LongestDecreasingSubsequence({2.0, 4.0, 1.0, 3.0}), 2);
  // Ties are not strictly decreasing.
  EXPECT_EQ(LongestDecreasingSubsequence({2.0, 2.0, 2.0}), 1);
}

TEST(OracleComponentsTest, PredictionFormulas) {
  LinearSeekOracle oracle;
  oracle.total_segments = 600000;
  // n = 1: one locate from 0 (T/2 expected) plus one transfer.
  EXPECT_NEAR(oracle.PredictFifoTourSeconds(1),
              5.0 + 2.5e-4 * 300000.0 + 0.0655, 1e-9);
  // Sorted service streams a request that lies within G* = 5 / (0.0655 -
  // 2.5e-4) segments of the head instead of locating to it; for n = 1 the
  // tour falls short of the locate-only form by exactly 5 * G* / (2T).
  const double crossover = 5.0 / (0.0655 - 2.5e-4);
  EXPECT_NEAR(oracle.PredictSortedTourSeconds(1),
              5.0 + 2.5e-4 * 300000.0 + 0.0655 -
                  5.0 * crossover / (2.0 * 600000.0),
              1e-9);
  // 2*sqrt(1000) - 1.7711 * 1000^(1/6) ≈ 57.645
  EXPECT_NEAR(PredictForwardPasses(1000), 57.645, 0.01);
}

}  // namespace
}  // namespace serpentine::layout
