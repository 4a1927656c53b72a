#include "serpentine/store/striped_volume.h"

#include <string>

#include <gtest/gtest.h>

#include "serpentine/util/lrand48.h"

namespace serpentine::store {
namespace {

using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;

StripedVolume MakeVolume(int drives) {
  return StripedVolume(Dlt4000TapeParams(), drives, Dlt4000Timings());
}

TEST(StripedVolumeTest, CapacityIsStripeAligned) {
  StripedVolume v = MakeVolume(4);
  EXPECT_EQ(v.num_drives(), 4);
  EXPECT_EQ(v.logical_segments() % 4, 0);
  // Four ~20 GB cartridges ≈ 80 GB logical.
  EXPECT_GT(v.logical_segments(), 4 * 600000L);
}

TEST(StripedVolumeTest, RoundRobinMapping) {
  StripedVolume v = MakeVolume(3);
  for (SegmentId logical : {0L, 1L, 2L, 3L, 100L, 3001L}) {
    auto loc = v.Locate(logical);
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(loc->drive, logical % 3);
    EXPECT_EQ(loc->segment, logical / 3);
  }
  EXPECT_FALSE(v.Locate(-1).ok());
  EXPECT_FALSE(v.Locate(v.logical_segments()).ok());
}

TEST(StripedVolumeTest, BatchSplitsEvenly) {
  StripedVolume v = MakeVolume(4);
  Lrand48 rng(3);
  std::vector<SegmentId> batch;
  for (int i = 0; i < 400; ++i)
    batch.push_back(rng.NextBounded(v.logical_segments()));
  auto result = v.ExecuteBatch(batch, "loss");
  ASSERT_TRUE(result.ok());
  int total = 0;
  for (int d = 0; d < 4; ++d) {
    EXPECT_GT(result->drive_requests[d], 60);
    EXPECT_LT(result->drive_requests[d], 140);
    total += result->drive_requests[d];
  }
  EXPECT_EQ(total, 400);
}

TEST(StripedVolumeTest, MakespanIsTheBusiestDrive) {
  StripedVolume v = MakeVolume(3);
  Lrand48 rng(5);
  std::vector<SegmentId> batch;
  for (int i = 0; i < 90; ++i)
    batch.push_back(rng.NextBounded(v.logical_segments()));
  auto result = v.ExecuteBatch(batch, "loss");
  ASSERT_TRUE(result.ok());
  double max_drive = 0.0, sum = 0.0;
  for (double s : result->drive_seconds) {
    max_drive = std::max(max_drive, s);
    sum += s;
  }
  EXPECT_DOUBLE_EQ(result->makespan_seconds, max_drive);
  EXPECT_NEAR(result->total_drive_seconds, sum, 1e-9);
  EXPECT_LT(result->makespan_seconds, result->total_drive_seconds);
}

TEST(StripedVolumeTest, StripingSpeedsUpBatches) {
  // The same logical batch on 1 vs 4 drives: near-linear makespan
  // improvement (minus the schedule-length effect: each drive's share is
  // smaller, so per-locate cost rises slightly).
  Lrand48 rng(7);
  StripedVolume one = MakeVolume(1);
  StripedVolume four = MakeVolume(4);
  std::vector<SegmentId> batch;
  for (int i = 0; i < 256; ++i)
    batch.push_back(rng.NextBounded(one.logical_segments()));
  auto r1 = one.ExecuteBatch(batch, "loss");
  auto r4 = four.ExecuteBatch(batch, "loss");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  double speedup = r1->makespan_seconds / r4->makespan_seconds;
  EXPECT_GT(speedup, 2.4);
  EXPECT_LT(speedup, 4.2);
}

TEST(StripedVolumeTest, HeadPositionsCarryAcrossBatches) {
  StripedVolume v = MakeVolume(2);
  Lrand48 rng(9);
  std::vector<SegmentId> batch;
  for (int i = 0; i < 20; ++i)
    batch.push_back(rng.NextBounded(v.logical_segments()));
  std::vector<SegmentId> head;
  auto r1 = v.ExecuteBatch(batch, "loss", &head);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(head.size(), 2u);
  EXPECT_TRUE(head[0] != 0 || head[1] != 0);
  // Re-running from the returned positions is accepted and differs from a
  // BOT start.
  auto r2 = v.ExecuteBatch(batch, "loss", &head);
  ASSERT_TRUE(r2.ok());
}

TEST(StripedVolumeTest, RejectsBadHeadVector) {
  StripedVolume v = MakeVolume(3);
  std::vector<SegmentId> head = {0, 0};  // wrong arity
  auto r = v.ExecuteBatch({1, 2, 3}, "sort", &head);
  EXPECT_FALSE(r.ok());
}

TEST(StripedVolumeTest, UnknownSchedulerIsInvalidArgument) {
  StripedVolume v = MakeVolume(2);
  auto r = v.ExecuteBatch({1, 2, 3}, "bogus");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error lists the registered names.
  std::string message = r.status().ToString();
  EXPECT_NE(message.find("bogus"), std::string::npos);
  EXPECT_NE(message.find("opt-small"), std::string::npos);
}

TEST(StripedVolumeTest, EmptyBatchIsFreeAndDrivesIdle) {
  StripedVolume v = MakeVolume(2);
  auto r = v.ExecuteBatch({}, "loss");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->makespan_seconds, 0.0);
  EXPECT_EQ(r->drive_requests[0] + r->drive_requests[1], 0);
}

}  // namespace
}  // namespace serpentine::store
