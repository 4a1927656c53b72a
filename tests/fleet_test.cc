// Fleet layer tests: the catalog's placement invariants, the router's
// pure-arithmetic decisions, and the determinism pin — a fleet of one
// library, one cartridge, replication 1 driven through Catalog + Router +
// ServingCore must reproduce RunOnlineServer field for field, bit for
// bit, across every serving extension and for any thread count.
#include "serpentine/fleet/fleet_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/router.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/util/check.h"

namespace serpentine::fleet {
namespace {

// ---------------------------------------------------------------- catalog

FleetTopology UniformTopology(int libraries, int cartridges,
                              tape::SegmentId segments_each) {
  FleetTopology t;
  t.capacity.assign(libraries,
                    std::vector<tape::SegmentId>(cartridges, segments_each));
  return t;
}

TEST(CatalogTest, SingleLibraryReplicationOneIsTheIdentityMapping) {
  // Sequential fill across cartridges: logical i IS physical segment i,
  // the property the determinism pin stands on.
  FleetTopology t;
  t.capacity = {{4, 3}};
  PlacementOptions options;
  auto catalog = Catalog::Build(t, 7, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_EQ(catalog->num_logical(), 7);
  for (int64_t i = 0; i < 7; ++i) {
    const std::vector<ReplicaLocation>& r = catalog->replicas(i);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].library, 0);
    EXPECT_EQ(r[0].cartridge, i < 4 ? 0 : 1);
    EXPECT_EQ(r[0].segment, i < 4 ? i : i - 4);
  }
  EXPECT_EQ(catalog->placed_per_library()[0], 7);
}

TEST(CatalogTest, RoundRobinBalancesAndSeparatesReplicas) {
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.replication = 2;
  auto catalog = Catalog::Build(t, 15, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  int64_t lo = std::numeric_limits<int64_t>::max(), hi = 0;
  for (int64_t n : catalog->placed_per_library()) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_LE(hi - lo, 1);
  for (int64_t i = 0; i < catalog->num_logical(); ++i) {
    const std::vector<ReplicaLocation>& r = catalog->replicas(i);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_NE(r[0].library, r[1].library)
        << "replicas of logical " << i << " share a library";
  }
}

TEST(CatalogTest, RandomPlacementIsSeedDeterministic) {
  FleetTopology t = UniformTopology(3, 2, 25);
  PlacementOptions options;
  options.policy = PlacementPolicy::kRandom;
  options.replication = 2;
  options.seed = 42;
  auto a = Catalog::Build(t, 30, options);
  auto b = Catalog::Build(t, 30, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t i = 0; i < a->num_logical(); ++i) {
    ASSERT_EQ(a->replicas(i), b->replicas(i)) << "logical " << i;
  }
}

TEST(CatalogTest, WeightedPlacementFollowsTheWeights) {
  // All the weight on library 0: every first replica lands there.
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {1.0, 0.0, 0.0};
  auto catalog = Catalog::Build(t, 12, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->placed_per_library()[0], 12);
  EXPECT_EQ(catalog->placed_per_library()[1], 0);
  EXPECT_EQ(catalog->placed_per_library()[2], 0);
}

TEST(CatalogTest, SingleNonzeroWeightCollapsesToThatLibrary) {
  // Zero-weight libraries must never be drawn, even when they are the
  // majority of the fleet.
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {0.0, 1.0, 0.0};
  auto catalog = Catalog::Build(t, 15, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->placed_per_library()[0], 0);
  EXPECT_EQ(catalog->placed_per_library()[1], 15);
  EXPECT_EQ(catalog->placed_per_library()[2], 0);
}

TEST(CatalogTest, AllZeroWeightsFailWithActionableMessage) {
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {0.0, 0.0, 0.0};
  Status s = Catalog::Build(t, 5, options).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The message should say what is wrong (zero total mass), not just that
  // the weights are "invalid".
  EXPECT_NE(s.ToString().find("sum to zero"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("positive weight"), std::string::npos)
      << s.ToString();
}

TEST(CatalogTest, RejectsImpossibleRequests) {
  FleetTopology empty;
  PlacementOptions options;
  EXPECT_EQ(Catalog::Build(empty, 1, options).status().code(),
            StatusCode::kInvalidArgument);

  FleetTopology t = UniformTopology(2, 1, 10);
  options.replication = 3;  // more replicas than libraries
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.replication = 0;
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.replication = 1;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {1.0};  // wrong arity for 2 libraries
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.weights = {0.0, 0.0};  // no positive mass
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.weights = {-1.0, 2.0};
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RunsOutOfCapacityWithResourceExhausted) {
  FleetTopology t = UniformTopology(1, 1, 4);
  PlacementOptions options;
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(CatalogTest, PolicyNamesRoundTrip) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kRandom,
        PlacementPolicy::kWeighted}) {
    auto parsed = PlacementPolicyFromString(PlacementPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_TRUE(PlacementPolicyFromString("roundrobin").ok());
  EXPECT_EQ(PlacementPolicyFromString("banana").status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- router

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() {
    PlacementOptions options;
    options.replication = 3;
    auto built = Catalog::Build(UniformTopology(3, 1, 8), 8, options);
    SERPENTINE_CHECK(built.ok());
    catalog_ = std::make_unique<Catalog>(std::move(built).value());
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(RouterTest, PicksTheCheapestReplica) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(0, {{5.0, false}, {3.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.location, catalog_->replicas(0)[1]);
  EXPECT_EQ(d.score_seconds, 3.0);
  EXPECT_FALSE(d.failover);
}

TEST_F(RouterTest, TiesBreakTowardTheLowerIndex) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(2, {{3.0, false}, {3.0, false}, {5.0, false}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
}

TEST_F(RouterTest, FailsOverPastAnOpenBreaker) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(1, {{2.0, true}, {4.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 1);
  EXPECT_TRUE(d.failover);
  EXPECT_EQ(d.score_seconds, 4.0);
  EXPECT_EQ(router.failovers(), 1);
}

TEST_F(RouterTest, AllBreakersOpenFallsBackToScoreOrder) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(3, {{2.0, true}, {4.0, true}, {9.0, true}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
  EXPECT_EQ(router.failovers(), 0);
}

TEST_F(RouterTest, FailoverCanBeDisabled) {
  RouterOptions options;
  options.failover_on_open_breaker = false;
  Router router(catalog_.get(), 3, options);
  RouteDecision d = router.Route(4, {{2.0, true}, {4.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
  EXPECT_EQ(router.failovers(), 0);
}

TEST_F(RouterTest, CountsDispatchesPerLibrary) {
  Router router(catalog_.get(), 3);
  // Round-robin catalog: logical i's replica 0 lives on library i mod 3.
  for (int64_t logical = 0; logical < 6; ++logical) {
    (void)router.Route(logical, {{1.0, false}, {2.0, false}, {3.0, false}});
  }
  EXPECT_EQ(router.dispatches(), 6);
  const std::vector<int64_t>& per = router.dispatches_per_library();
  ASSERT_EQ(per.size(), 3u);
  EXPECT_EQ(per[0] + per[1] + per[2], 6);
  EXPECT_EQ(per[0], 2);
  EXPECT_EQ(per[1], 2);
  EXPECT_EQ(per[2], 2);
}

// ------------------------------------------------- the determinism pin

class FleetPinTest : public ::testing::Test {
 protected:
  FleetPinTest()
      : one_(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
             /*libraries=*/1, /*cartridges_per_library=*/1, /*first_seed=*/1),
        model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// RunFleet(1 library) == RunOnlineServer, every field, bit for bit.
  void ExpectPinned(const sim::OnlineServerConfig& serving) {
    FleetConfig config;
    config.serving = serving;
    StatusOr<FleetResult> via_fleet = RunFleet(one_.fleet(), config);
    StatusOr<sim::OnlineServerResult> direct =
        sim::RunOnlineServer(model_, serving);
    ASSERT_TRUE(via_fleet.ok()) << via_fleet.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectIdentical(via_fleet->total, *direct);
    // The per-library view of a 1-library fleet is the fleet total.
    ASSERT_EQ(via_fleet->per_library.size(), 1u);
    ExpectIdentical(via_fleet->per_library[0], *direct);
    EXPECT_EQ(via_fleet->routed_per_library[0], direct->arrivals);
    EXPECT_EQ(via_fleet->failovers, 0);
    EXPECT_EQ(via_fleet->cartridge_mounts, 0);  // one cartridge, no switches
  }

  static void ExpectIdentical(const sim::OnlineServerResult& a,
                              const sim::OnlineServerResult& b) {
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.deadline_missed, b.deadline_missed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    EXPECT_EQ(a.drive_busy_seconds, b.drive_busy_seconds);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.mean_response_seconds, b.mean_response_seconds);
    EXPECT_EQ(a.p95_response_seconds, b.p95_response_seconds);
    EXPECT_EQ(a.p99_response_seconds, b.p99_response_seconds);
    EXPECT_EQ(a.max_response_seconds, b.max_response_seconds);
    EXPECT_EQ(a.throughput_per_hour, b.throughput_per_hour);
    EXPECT_EQ(a.fault_retries, b.fault_retries);
    EXPECT_EQ(a.drive_resets, b.drive_resets);
    EXPECT_EQ(a.reschedules, b.reschedules);
    EXPECT_EQ(a.permanent_errors, b.permanent_errors);
    EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
    EXPECT_EQ(a.max_wait_cycles_observed, b.max_wait_cycles_observed);
    EXPECT_EQ(a.degraded_batches, b.degraded_batches);
    EXPECT_EQ(a.degradation_max_rung, b.degradation_max_rung);
    EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails);
    EXPECT_EQ(a.breaker_wait_seconds, b.breaker_wait_seconds);
    ASSERT_EQ(a.breaker_transitions.size(), b.breaker_transitions.size());
    for (size_t i = 0; i < a.breaker_transitions.size(); ++i) {
      EXPECT_EQ(a.breaker_transitions[i].at_seconds,
                b.breaker_transitions[i].at_seconds);
      EXPECT_EQ(a.breaker_transitions[i].from, b.breaker_transitions[i].from);
      EXPECT_EQ(a.breaker_transitions[i].to, b.breaker_transitions[i].to);
    }
    ASSERT_EQ(a.shed_records.size(), b.shed_records.size());
    for (size_t i = 0; i < a.shed_records.size(); ++i) {
      EXPECT_EQ(a.shed_records[i].id, b.shed_records[i].id);
      EXPECT_EQ(a.shed_records[i].arrival_seconds,
                b.shed_records[i].arrival_seconds);
      EXPECT_EQ(a.shed_records[i].priority, b.shed_records[i].priority);
      EXPECT_EQ(a.shed_records[i].status.code(), b.shed_records[i].status.code());
    }
  }

  UniformFleet one_;
  tape::Dlt4000LocateModel model_;
};

TEST_F(FleetPinTest, PinnedWithDefaults) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 120;
  serving.arrival_rate_per_hour = 60.0;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithAdmissionAndDeadlines) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 100;
  serving.arrival_rate_per_hour = 120.0;  // past saturation: sheds happen
  serving.deadline_seconds = 900.0;
  serving.deadline_spread = 0.5;
  serving.admission.enabled = true;
  serving.admission.max_queue_depth = 12;
  serving.seed = 7;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedUnderFaults) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 80;
  serving.arrival_rate_per_hour = 70.0;
  serving.faults = drive::FaultProfile::Heavy();
  serving.seed = 21;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithBreakerCycling) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 120;
  serving.arrival_rate_per_hour = 60.0;
  serving.faults = drive::FaultProfile::Heavy().Scaled(4.0);
  serving.breaker_enabled = true;
  serving.breaker.window_ops = 8;
  serving.breaker.failure_threshold = 3;
  serving.breaker.cooldown_seconds = 120.0;
  serving.breaker.half_open_successes = 1;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithCappedPriorityBatchesAndAging) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 90;
  serving.arrival_rate_per_hour = 100.0;
  serving.dispatch_max_batch = 6;
  serving.priority_classes = 3;
  serving.max_wait_cycles = 4;
  serving.seed = 11;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedUnderDegradation) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 90;
  serving.arrival_rate_per_hour = 150.0;
  serving.degradation.enabled = true;
  serving.degradation.queue_depth_step = 8;
  serving.seed = 3;
  ExpectPinned(serving);
}

// ------------------------------------------------------- multi-library

class FleetServerTest : public ::testing::Test {
 protected:
  static FleetConfig BaseConfig(int libraries) {
    FleetConfig config;
    config.serving.total_requests = 90;
    config.serving.arrival_rate_per_hour = 40.0 * libraries;
    config.placement.replication = std::min(libraries, 2);
    config.mount_exchange_seconds = 75.0;
    return config;
  }
};

TEST_F(FleetServerTest, ConservesEveryArrivalAcrossLibraries) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/3, /*cartridges_per_library=*/2);
  FleetConfig config = BaseConfig(3);
  StatusOr<FleetResult> result = RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->total.arrivals, config.serving.total_requests);
  EXPECT_EQ(result->total.shed + result->total.completed + result->total.failed,
            result->total.arrivals);
  ASSERT_EQ(result->per_library.size(), 3u);
  ASSERT_EQ(result->routed_per_library.size(), 3u);
  int64_t routed = 0;
  int served = 0;
  for (int lib = 0; lib < 3; ++lib) {
    routed += result->routed_per_library[lib];
    served += result->per_library[lib].arrivals;
    EXPECT_EQ(result->per_library[lib].arrivals,
              static_cast<int>(result->routed_per_library[lib]));
  }
  EXPECT_EQ(routed, result->total.arrivals);
  EXPECT_EQ(served, result->total.arrivals);
  // Two cartridges per library and interleaved segments: switches happen.
  EXPECT_GT(result->cartridge_mounts, 0);
  EXPECT_GT(result->mount_seconds, 0.0);
}

TEST_F(FleetServerTest, MultiLibraryRunsAreDeterministic) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/2);
  FleetConfig config = BaseConfig(2);
  config.placement.policy = PlacementPolicy::kRandom;
  StatusOr<FleetResult> a = RunFleet(uniform.fleet(), config);
  StatusOr<FleetResult> b = RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total.completed, b->total.completed);
  EXPECT_EQ(a->total.makespan_seconds, b->total.makespan_seconds);
  EXPECT_EQ(a->total.p99_response_seconds, b->total.p99_response_seconds);
  EXPECT_EQ(a->routed_per_library, b->routed_per_library);
  EXPECT_EQ(a->cartridge_mounts, b->cartridge_mounts);
  EXPECT_EQ(a->mount_seconds, b->mount_seconds);
}

TEST_F(FleetServerTest, ReplicatedFleetIsThreadCountInvariant) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/1);
  FleetConfig config = BaseConfig(2);
  config.serving.total_requests = 50;
  config.serving.faults = drive::FaultProfile::Light();

  auto serial = RunReplicatedFleet(uniform.fleet(), config, 5, /*threads=*/1);
  auto two = RunReplicatedFleet(uniform.fleet(), config, 5, /*threads=*/2);
  auto eight = RunReplicatedFleet(uniform.fleet(), config, 5, /*threads=*/8);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(eight.ok());
  for (const ReplicatedFleetStats* other : {&*two, &*eight}) {
    ASSERT_EQ(serial->results.size(), other->results.size());
    for (size_t r = 0; r < serial->results.size(); ++r) {
      EXPECT_EQ(serial->results[r].total.completed,
                other->results[r].total.completed);
      EXPECT_EQ(serial->results[r].total.p99_response_seconds,
                other->results[r].total.p99_response_seconds);
      EXPECT_EQ(serial->results[r].total.makespan_seconds,
                other->results[r].total.makespan_seconds);
      EXPECT_EQ(serial->results[r].routed_per_library,
                other->results[r].routed_per_library);
    }
    EXPECT_EQ(serial->mean_response_seconds.mean(),
              other->mean_response_seconds.mean());
    EXPECT_EQ(serial->p99_response_seconds.mean(),
              other->p99_response_seconds.mean());
    EXPECT_EQ(serial->utilization.mean(), other->utilization.mean());
    EXPECT_EQ(serial->shed_fraction.mean(), other->shed_fraction.mean());
    EXPECT_EQ(serial->failover_fraction.mean(),
              other->failover_fraction.mean());
  }
  EXPECT_EQ(serial->mean_response_seconds.count(), 5);
}

TEST_F(FleetServerTest, ValidateRejectsGarbage) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/1);
  FleetConfig ok = BaseConfig(2);
  EXPECT_TRUE(ValidateFleetConfig(uniform.fleet(), ok).ok());

  Fleet empty;
  EXPECT_EQ(ValidateFleetConfig(empty, ok).code(),
            StatusCode::kInvalidArgument);

  Fleet holed;
  holed.models = {{uniform.fleet().models[0][0]}, {}};
  EXPECT_EQ(ValidateFleetConfig(holed, ok).code(),
            StatusCode::kInvalidArgument);

  FleetConfig bad = ok;
  bad.mount_exchange_seconds = -1.0;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.logical_segments = -5;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.serving.arrival_rate_per_hour = -3.0;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  // Replication past the library count surfaces from Catalog::Build.
  bad = ok;
  bad.placement.replication = 5;
  EXPECT_EQ(RunFleet(uniform.fleet(), bad).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(RunReplicatedFleet(uniform.fleet(), ok, 0).status().code(),
            StatusCode::kInvalidArgument);
  // An unplaceable catalog fails every replica; the replicated driver
  // returns that Status instead of aborting.
  EXPECT_EQ(RunReplicatedFleet(uniform.fleet(), bad, 3, /*threads=*/2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serpentine::fleet
