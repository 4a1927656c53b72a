// The paper's algorithm-selection rule (§5/§8: "OPT is recommended for
// scheduling up to 10 locates. Then, use the LOSS algorithm for up to 1536
// uniformly randomly distributed requests. For more than 1536 requests just
// read the entire tape"), as the default registry's "opt-small" entry. Its
// READ part is the registry's one-pass bound, which every entry shares.
#include "serpentine/sched/registry.h"

#include <gtest/gtest.h>

#include "serpentine/sched/estimator.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  SelectorTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  std::vector<Request> Batch(int n, int32_t seed) {
    Lrand48 rng(seed);
    std::vector<Request> out;
    for (int i = 0; i < n; ++i)
      out.push_back(
          Request{rng.NextBounded(model_.geometry().total_segments()), 1});
    return out;
  }

  StatusOr<Schedule> Build(const std::vector<Request>& requests,
                           const char* name = "opt-small") {
    return Registry::Default().Build(model_, 0, requests, name);
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(SelectorTest, StaticRuleMatchesPaperGuidance) {
  // Up to kOptSmallMaxRequests the entry is the opt entry; above, the loss
  // entry.
  ASSERT_EQ(kOptSmallMaxRequests, 10);
  for (int n : {1, 10, 11}) {
    std::vector<Request> requests = Batch(n, 5 + n);
    auto chosen = Build(requests);
    auto expected = Build(requests, n <= 10 ? "opt" : "loss");
    ASSERT_TRUE(chosen.ok()) << n;
    ASSERT_TRUE(expected.ok()) << n;
    EXPECT_EQ(chosen->algorithm, expected->algorithm) << n;
    EXPECT_EQ(chosen->order, expected->order) << n;
  }
}

TEST_F(SelectorTest, TinyBatchUsesOpt) {
  auto s = Build(Batch(6, 3));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->algorithm, Algorithm::kOpt);
  auto opt = Build(Batch(6, 3), "opt");
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(s->order, opt->order);
}

TEST_F(SelectorTest, MediumBatchUsesHeuristic) {
  auto s = Build(Batch(100, 3));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->algorithm, Algorithm::kLoss);
  EXPECT_FALSE(s->full_tape_scan);
  auto loss = Build(Batch(100, 3), "loss");
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(s->order, loss->order);
}

TEST_F(SelectorTest, DenseBatchDowngradesToFullRead) {
  // Past the crossover the build costs no more than reading the tape.
  auto s = Build(Batch(3000, 3));
  ASSERT_TRUE(s.ok());
  EXPECT_LE(EstimateScheduleSeconds(model_, *s), ReadBoundSeconds(model_, 0));
}

TEST_F(SelectorTest, CrossoverDependsOnDistributionNotJustSize) {
  // 3000 distinct requests packed into a narrow band: a schedule is far
  // faster than a full pass, where a fixed N>1536 rule would wrongly
  // choose READ. (Distinct positions matter: duplicate segments force
  // ~24 s backward repositioning per re-read, which would dominate the
  // estimate.)
  std::vector<Request> clustered;
  for (int i = 0; i < 3000; ++i)
    clustered.push_back(Request{100000 + 12 * i, 1});
  auto s = Build(clustered);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s->full_tape_scan);
  EXPECT_LT(EstimateScheduleSeconds(model_, *s), 2000.0);
}

TEST_F(SelectorTest, ComparisonCanBeDisabled) {
  // The READ bound never turns a build into a full-tape scan: a dense
  // batch comes back as a LOSS-labelled order (at worst the ascending
  // pass). Only the read entry scans the whole tape.
  std::vector<Request> requests = Batch(3000, 3);
  auto s = Build(requests);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->algorithm, Algorithm::kLoss);
  EXPECT_FALSE(s->full_tape_scan);
  auto read = Build(requests, "read");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->full_tape_scan);
}

TEST_F(SelectorTest, AlternativeHeuristic) {
  // Another heuristic is another registry entry.
  auto s = Build(Batch(64, 5), "scan");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->algorithm, Algorithm::kScan);
}

TEST_F(SelectorTest, SelectedScheduleNeverWorseThanBothEndpoints) {
  for (int n : {4, 40, 400, 2500}) {
    std::vector<Request> requests = Batch(n, 11 + n);
    auto best = Build(requests);
    ASSERT_TRUE(best.ok());
    auto read = BuildSchedule(model_, 0, requests, Algorithm::kRead);
    ASSERT_TRUE(read.ok());
    EXPECT_LE(EstimateScheduleSeconds(model_, *best),
              EstimateScheduleSeconds(model_, *read) + 1e-6)
        << n;
  }
}

}  // namespace
}  // namespace serpentine::sched
