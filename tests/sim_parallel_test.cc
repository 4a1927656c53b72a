// Determinism contract of the parallel experiment harness: the reported
// simulation statistics must be bit-identical no matter how many worker
// threads run the trial loops (docs/performance.md). Only the wall-clock
// CPU measurement is allowed to move.
#include <gtest/gtest.h>

#include "serpentine/sim/experiment.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sim {
namespace {

using sched::Algorithm;
using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::TapeGeometry;

class SimParallelTest : public ::testing::Test {
 protected:
  SimParallelTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}
  Dlt4000LocateModel model_;
};

/// The simulated statistics of two runs, compared bit for bit (the CPU
/// timing field is excluded on purpose — it is a measurement).
void ExpectBitIdentical(const PointStats& a, const PointStats& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.mean_total_seconds, b.mean_total_seconds);
  EXPECT_EQ(a.std_total_seconds, b.std_total_seconds);
  EXPECT_EQ(a.mean_seconds_per_locate, b.mean_seconds_per_locate);
}

TEST_F(SimParallelTest, SimulatePointBitIdenticalAcrossThreadCounts) {
  ParallelOptions one;
  one.threads = 1;
  PointStats serial = SimulatePoint(model_, model_, Algorithm::kSort, 16,
                                    200, /*start_at_bot=*/false, 41, {},
                                    one);
  for (int threads : {2, 8}) {
    ParallelOptions many;
    many.threads = threads;
    PointStats parallel = SimulatePoint(model_, model_, Algorithm::kSort,
                                        16, 200, /*start_at_bot=*/false, 41,
                                        {}, many);
    SCOPED_TRACE(threads);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST_F(SimParallelTest, SimulatePointLossBitIdenticalAcrossThreadCounts) {
  ParallelOptions one;
  one.threads = 1;
  PointStats serial = SimulatePoint(model_, model_, Algorithm::kLoss, 32,
                                    40, /*start_at_bot=*/true, 43, {}, one);
  ParallelOptions eight;
  eight.threads = 8;
  PointStats parallel = SimulatePoint(model_, model_, Algorithm::kLoss, 32,
                                      40, /*start_at_bot=*/true, 43, {},
                                      eight);
  ExpectBitIdentical(serial, parallel);
}

TEST_F(SimParallelTest, TrialCountAboveShardCapSplitsUnevenlyButIdentically) {
  // 300 trials > the 256-shard cap, so shards own 1 or 2 trials each; the
  // merge order must still make thread counts indistinguishable.
  ParallelOptions one;
  one.threads = 1;
  PointStats serial = SimulatePoint(model_, model_, Algorithm::kSort, 8,
                                    300, /*start_at_bot=*/false, 47, {},
                                    one);
  ParallelOptions eight;
  eight.threads = 8;
  PointStats parallel = SimulatePoint(model_, model_, Algorithm::kSort, 8,
                                      300, /*start_at_bot=*/false, 47, {},
                                      eight);
  ExpectBitIdentical(serial, parallel);
}

TEST_F(SimParallelTest, ChainedBatchesBitIdenticalAcrossThreadCounts) {
  ParallelOptions one;
  one.threads = 1;
  PointStats serial = SimulateChainedBatches(model_, Algorithm::kLoss, 24,
                                             30, 51, {}, one);
  for (int threads : {2, 8}) {
    ParallelOptions many;
    many.threads = threads;
    PointStats parallel = SimulateChainedBatches(model_, Algorithm::kLoss,
                                                 24, 30, 51, {}, many);
    SCOPED_TRACE(threads);
    ExpectBitIdentical(serial, parallel);
  }
}

TEST_F(SimParallelTest, ModelsWithoutConcurrentUseFallBackToSerial) {
  // PhysicalDrive's noise stream is stateful, so the harness must refuse
  // to fan it out — the result at 8 requested threads matches 1 thread
  // because both actually run serially.
  PhysicalDrive drive(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
                      Dlt4000Timings());
  ASSERT_FALSE(drive.SupportsConcurrentUse());
  ParallelOptions one;
  one.threads = 1;
  drive.ResetNoise(5);
  PointStats serial = SimulatePoint(model_, drive, Algorithm::kSort, 8, 50,
                                    /*start_at_bot=*/false, 57, {}, one);
  ParallelOptions eight;
  eight.threads = 8;
  drive.ResetNoise(5);
  PointStats parallel = SimulatePoint(model_, drive, Algorithm::kSort, 8,
                                      50, /*start_at_bot=*/false, 57, {},
                                      eight);
  ExpectBitIdentical(serial, parallel);
}

TEST_F(SimParallelTest, ReplicatedQueueSimBitIdenticalAcrossThreadCounts) {
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 240.0;
  config.total_requests = 60;
  config.algorithm = sched::Algorithm::kLoss;
  config.dispatch_min_batch = 8;
  config.seed = 9;

  // Per-replication p95s folded in replication order, as the replicated
  // stats fold their own accumulators.
  auto p95 = [](const ReplicatedOnlineServerStats& stats) {
    Accumulator acc;
    for (const OnlineServerResult& r : stats.results) {
      acc.Add(r.p95_response_seconds);
    }
    return acc;
  };

  StatusOr<ReplicatedOnlineServerStats> serial =
      RunReplicatedOnlineServer(model_, config, 6, /*threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {2, 8}) {
    StatusOr<ReplicatedOnlineServerStats> parallel =
        RunReplicatedOnlineServer(model_, config, 6, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    SCOPED_TRACE(threads);
    ASSERT_EQ(parallel->results.size(), serial->results.size());
    for (size_t r = 0; r < serial->results.size(); ++r) {
      EXPECT_EQ(parallel->results[r].mean_response_seconds,
                serial->results[r].mean_response_seconds);
      EXPECT_EQ(parallel->results[r].throughput_per_hour,
                serial->results[r].throughput_per_hour);
      EXPECT_EQ(parallel->results[r].batches, serial->results[r].batches);
    }
    EXPECT_EQ(parallel->mean_response_seconds.mean(),
              serial->mean_response_seconds.mean());
    EXPECT_EQ(parallel->mean_response_seconds.stddev(),
              serial->mean_response_seconds.stddev());
    EXPECT_EQ(parallel->throughput_per_hour.mean(),
              serial->throughput_per_hour.mean());
    EXPECT_EQ(parallel->utilization.mean(), serial->utilization.mean());
    EXPECT_EQ(p95(*parallel).mean(), p95(*serial).mean());
  }
}

TEST_F(SimParallelTest, ReplicationsAreDecorrelated) {
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 240.0;
  config.total_requests = 40;
  config.dispatch_min_batch = 4;
  config.seed = 2;
  StatusOr<ReplicatedOnlineServerStats> stats =
      RunReplicatedOnlineServer(model_, config, 4);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->results.size(), 4u);
  // Different derived seeds: replications should not all coincide.
  EXPECT_GT(stats->mean_response_seconds.stddev(), 0.0);
  EXPECT_EQ(stats->mean_response_seconds.count(), 4);
}

}  // namespace
}  // namespace serpentine::sim
