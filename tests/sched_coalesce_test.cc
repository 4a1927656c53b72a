#include "serpentine/sched/coalesce.h"

#include <gtest/gtest.h>

#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

std::vector<Request> Reqs(std::initializer_list<tape::SegmentId> segs) {
  std::vector<Request> out;
  for (auto s : segs) out.push_back(Request{s, 1});
  return out;
}

TEST(CoalesceTest, EmptyInput) {
  EXPECT_TRUE(CoalesceRequests({}, 1410).empty());
}

TEST(CoalesceTest, SingleRequest) {
  auto groups = CoalesceRequests(Reqs({500}), 1410);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].in(), 500);
  EXPECT_EQ(groups[0].last(), 500);
}

TEST(CoalesceTest, MergesWithinThreshold) {
  auto groups = CoalesceRequests(Reqs({100, 1000, 5000}), 1410);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[0].in(), 100);
  EXPECT_EQ(groups[0].last(), 1000);
  EXPECT_EQ(groups[1].in(), 5000);
}

TEST(CoalesceTest, ChainsTransitively) {
  // Each neighbor gap is under the threshold, so one long group forms even
  // though the extremes are far apart.
  auto groups = CoalesceRequests(Reqs({0, 1000, 2000, 3000, 4000}), 1410);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 5u);
  EXPECT_EQ(groups[0].last(), 4000);
}

TEST(CoalesceTest, SortsUnorderedInput) {
  auto groups = CoalesceRequests(Reqs({9000, 100, 4000, 150}), 1410);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].in(), 100);
  EXPECT_EQ(groups[0].members.size(), 2u);
  EXPECT_EQ(groups[1].in(), 4000);
  EXPECT_EQ(groups[2].in(), 9000);
}

TEST(CoalesceTest, ZeroThresholdKeepsAllSeparate) {
  auto groups = CoalesceRequests(Reqs({5, 6, 7}), 0);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(CoalesceTest, ExactThresholdGapDoesNotMerge) {
  // The paper merges on s_i - s_{i-1} < T, strictly.
  auto groups = CoalesceRequests(Reqs({0, 1410}), 1410);
  EXPECT_EQ(groups.size(), 2u);
  groups = CoalesceRequests(Reqs({0, 1409}), 1410);
  EXPECT_EQ(groups.size(), 1u);
}

TEST(CoalesceTest, MultiSegmentRequestsMeasureFromLastSegment) {
  // A 1000-segment request ending at 1999; next request at 3000 has gap
  // 1001 < 1410 and merges.
  std::vector<Request> reqs = {Request{1000, 1000}, Request{3000, 1}};
  auto groups = CoalesceRequests(reqs, 1410);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].last(), 3000);
}

TEST(CoalesceTest, OverlappingRequestsReachTheFurthestSegment) {
  // {100, 64} reads through 163; {110, 1} starts later but ends earlier, so
  // the group still reads through 163 and the next gap is measured from
  // there: {170, 1} is 7 past it.
  std::vector<Request> reqs = {Request{110, 1}, Request{100, 64}};
  auto groups = CoalesceRequests(reqs, 10);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].in(), 100);
  EXPECT_EQ(groups[0].last(), 163);
  reqs.push_back(Request{170, 1});
  EXPECT_EQ(CoalesceRequests(reqs, 8).size(), 1u);
  EXPECT_EQ(CoalesceRequests(reqs, 7).size(), 2u);
  // Threshold 0 never merges, not even overlapping requests.
  auto separate = CoalesceRequests(reqs, 0);
  ASSERT_EQ(separate.size(), 3u);
  EXPECT_EQ(separate[0].last(), 163);
  EXPECT_EQ(separate[1].last(), 110);
}

TEST(CoalesceTest, DuplicateSegmentsStayTogether) {
  auto groups = CoalesceRequests(Reqs({42, 42, 42}), 1410);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 3u);
}

TEST(CoalesceTest, GroupCountShrinksWithThreshold) {
  Lrand48 rng(77);
  std::vector<Request> reqs;
  for (int i = 0; i < 512; ++i)
    reqs.push_back(Request{rng.NextBounded(622058), 1});
  size_t prev = reqs.size() + 1;
  for (int64_t t : {0, 100, 1410, 10000, 100000}) {
    auto groups = CoalesceRequests(reqs, t);
    EXPECT_LE(groups.size(), prev);
    prev = groups.size();
    // Conservation: groups partition the requests.
    size_t total = 0;
    for (const auto& group : groups) total += group.members.size();
    EXPECT_EQ(total, reqs.size());
  }
}

TEST(CoalesceTest, FlattenRespectsVisitOrder) {
  auto groups = CoalesceRequests(Reqs({100, 200, 9000}), 1410);
  ASSERT_EQ(groups.size(), 2u);
  auto flat = FlattenGroups(groups, {1, 0});
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].segment, 9000);
  EXPECT_EQ(flat[1].segment, 100);
  EXPECT_EQ(flat[2].segment, 200);
}

}  // namespace
}  // namespace serpentine::sched
