#include "serpentine/stress/stress.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::stress {
namespace {

/// A tiny helical tape: 64 segments, so a few thousand uniform requests
/// hit every segment many times — exactly what the cache and coalescing
/// paths need exercised.
tape::HelicalLocateModel TinyModel() { return tape::HelicalLocateModel(64); }

std::vector<std::vector<const tape::LocateModel*>> OneLibrary(
    const tape::LocateModel& m) {
  return {{&m}};
}

StressConfig BaseConfig() {
  StressConfig config;
  config.arrival_rate_per_hour = 600.0;
  config.total_requests = 2000;
  config.seed = 5;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = 64;
  config.serving.dispatch_max_batch = 16;
  return config;
}

TEST(StressTest, ConservationHoldsWithEveryFeatureOn) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
  config.cache_capacity = 16;
  config.coalesce_duplicates = true;
  config.arrival_rate_per_hour = 5000.0;  // deep overload: sheds happen

  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StressResult& r = *result;
  EXPECT_EQ(r.arrivals, config.total_requests);
  EXPECT_EQ(r.cache_hits + r.coalesced + r.completed + r.failed + r.shed,
            r.arrivals);
  EXPECT_EQ(r.engine.arrivals, r.dispatched);
  EXPECT_GT(r.shed, 0);       // overload actually shed
  EXPECT_GT(r.cache_hits, 0);  // tiny segment space actually hit
  EXPECT_GT(r.coalesced, 0);   // duplicates actually coalesced

  // Per-tenant terminal paths conserve, and sum to the totals.
  int64_t arrivals = 0, hits = 0, coalesced = 0, completed = 0, failed = 0,
          shed = 0;
  for (const TenantStats& t : r.tenants) {
    EXPECT_EQ(t.cache_hits + t.coalesced + t.completed + t.failed + t.shed,
              t.arrivals)
        << t.name;
    arrivals += t.arrivals;
    hits += t.cache_hits;
    coalesced += t.coalesced;
    completed += t.completed;
    failed += t.failed;
    shed += t.shed;
  }
  EXPECT_EQ(arrivals, r.arrivals);
  EXPECT_EQ(hits, r.cache_hits);
  EXPECT_EQ(coalesced, r.coalesced);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(failed, r.failed);
  EXPECT_EQ(shed, r.shed);
}

TEST(StressTest, DeterministicPerSeed) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.cache_capacity = 8;
  config.coalesce_duplicates = true;

  auto a = RunStress(OneLibrary(model), config);
  auto b = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->completed, b->completed);
  EXPECT_EQ(a->shed, b->shed);
  EXPECT_EQ(a->cache_hits, b->cache_hits);
  EXPECT_EQ(a->coalesced, b->coalesced);
  EXPECT_DOUBLE_EQ(a->p99_response_seconds, b->p99_response_seconds);
  EXPECT_DOUBLE_EQ(a->makespan_seconds, b->makespan_seconds);

  config.seed = 6;
  auto c = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->makespan_seconds, a->makespan_seconds);
}

TEST(StressTest, TenantSharesTrackWeights) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.total_requests = 6000;
  config.tenants = {{"big", 3.0}, {"small", 1.0}};

  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  double share = static_cast<double>(result->tenants[0].arrivals) /
                 result->arrivals;
  EXPECT_NEAR(share, 0.75, 0.03);
  // Everyone is answered in proportion, so fairness sits near 1.
  EXPECT_GT(result->fairness_jain, 0.95);
  EXPECT_LE(result->fairness_jain, 1.0 + 1e-12);
}

TEST(StressTest, CacheDisabledMeansNoHits) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.cache_capacity = 0;
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cache_hits, 0);
}

TEST(StressTest, CoalescingOffMeansEveryMissDispatches) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.coalesce_duplicates = false;
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->coalesced, 0);
  EXPECT_EQ(result->dispatched, result->arrivals - result->cache_hits);
}

TEST(StressTest, QuantilesAreOrderedAndBoundedByMax) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  const StressResult& r = *result;
  EXPECT_LE(r.p50_response_seconds, r.p95_response_seconds);
  EXPECT_LE(r.p95_response_seconds, r.p99_response_seconds);
  EXPECT_LE(r.p99_response_seconds, r.p999_response_seconds);
  EXPECT_LE(r.p999_response_seconds, r.max_response_seconds);
  EXPECT_DOUBLE_EQ(r.latency.Quantile(1.0), r.max_response_seconds);
}

TEST(StressTest, EachArrivalProcessRunsDeterministically) {
  tape::HelicalLocateModel model = TinyModel();
  for (const char* process : {"poisson", "diurnal", "bursty"}) {
    StressConfig config = BaseConfig();
    config.process = process;
    auto a = RunStress(OneLibrary(model), config);
    auto b = RunStress(OneLibrary(model), config);
    ASSERT_TRUE(a.ok() && b.ok()) << process;
    EXPECT_DOUBLE_EQ(a->makespan_seconds, b->makespan_seconds) << process;
    EXPECT_EQ(a->completed, b->completed) << process;
  }
}

TEST(StressTest, FleetRunConservesAcrossLibraries) {
  tape::HelicalLocateModel m0 = TinyModel();
  tape::HelicalLocateModel m1 = TinyModel();
  tape::HelicalLocateModel m2 = TinyModel();
  StressConfig config = BaseConfig();
  config.libraries = 3;
  config.coalesce_duplicates = true;
  config.cache_capacity = 8;
  auto result = RunStress({{&m0}, {&m1}, {&m2}}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cache_hits + result->coalesced + result->completed +
                result->failed + result->shed,
            result->arrivals);
  EXPECT_EQ(result->engine.arrivals, result->dispatched);
}

TEST(StressTest, ReplicatedStatsAreThreadCountInvariant) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.total_requests = 500;
  auto serial = RunReplicatedStress(OneLibrary(model), config, 6,
                                    /*threads=*/1);
  auto parallel = RunReplicatedStress(OneLibrary(model), config, 6,
                                      /*threads=*/4);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_DOUBLE_EQ(serial->p99_response_seconds.mean(),
                   parallel->p99_response_seconds.mean());
  EXPECT_DOUBLE_EQ(serial->throughput_per_hour.mean(),
                   parallel->throughput_per_hour.mean());
  EXPECT_DOUBLE_EQ(serial->shed_fraction.mean(),
                   parallel->shed_fraction.mean());
  EXPECT_DOUBLE_EQ(serial->fairness_jain.mean(),
                   parallel->fairness_jain.mean());
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(serial->results[r].completed, parallel->results[r].completed);
  }
}

TEST(StressTest, ValidationRejectsGarbage) {
  StressConfig config = BaseConfig();
  config.process = "sawtooth";
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  config = BaseConfig();
  config.tenants = {{"zero", 0.0}};
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  config = BaseConfig();
  config.cache_capacity = -1;
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  config = BaseConfig();
  config.libraries = 0;
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  // The id-packing bound flows through from the online server: 2^32 arrivals
  // would wrap the 32-bit index field of (seed << 32) | index.
  config = BaseConfig();
  config.total_requests = int64_t{1} << 32;
  Status s = ValidateStressConfig(config);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("2^32"), std::string::npos);
}

TEST(StressTest, ModelArityMustMatchLibraries) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.libraries = 2;
  EXPECT_FALSE(RunStress(OneLibrary(model), config).ok());
}

TEST(StressTest, FleetShapeAndKnobsAreValidatedByTheEngine) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.libraries = 2;
  std::vector<std::vector<const tape::LocateModel*>> holed = {{&model}, {}};
  EXPECT_EQ(RunStress(holed, config).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::vector<const tape::LocateModel*>> null_model = {
      {&model}, {nullptr}};
  EXPECT_EQ(RunStress(null_model, config).status().code(),
            StatusCode::kInvalidArgument);
  // Replicated runs reject the shape up front instead of aborting.
  EXPECT_EQ(RunReplicatedStress(null_model, config, 2).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.mount_exchange_seconds = -1.0;
  EXPECT_EQ(RunStress(OneLibrary(model), config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serpentine::stress
