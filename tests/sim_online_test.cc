#include "serpentine/sim/online_server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
namespace serpentine::sim {

// The fault subsystem lives in drive/ since PR 3; pull the names these
// tests predate the move with into scope.
using drive::ClassifyFault;
using drive::FaultInjector;
using drive::FaultProfile;
using drive::FaultType;
using drive::FaultTypeName;
using drive::LoadFaultProfile;
using drive::ValidateFaultProfile;
namespace {

class OnlineServerTest : public ::testing::Test {
 protected:
  OnlineServerTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// The base queueing loop's outputs on one configuration, recorded from
  /// the standalone queue simulator this server replaced (doubles printed
  /// with %.17g, so each converts back to the same bits). That simulator
  /// counted answered-with-error requests inside `answered`; the online
  /// server splits them into completed and failed. The FIFO (seed 77) and
  /// light-fault (seed 5) values were re-recorded from the server once
  /// every served batch became READ-bounded: on some batches the ascending
  /// pass beats the configured order, and the server serves it instead.
  /// Both fault configurations were re-recorded again once faulted groups
  /// advanced the clock step by step like fault-free ones: only the
  /// summation order moved (relative differences below 1e-14).
  struct Golden {
    int64_t answered;
    int64_t failed;
    int64_t batches;
    double mean_batch_size;
    double makespan_seconds;
    double drive_busy_seconds;
    double utilization;
    double mean_response_seconds;
    double p95_response_seconds;
    double max_response_seconds;
    double throughput_per_hour;
    int64_t fault_retries;
    int64_t drive_resets;
    int64_t reschedules;
    int64_t permanent_errors;
    double recovery_seconds;
  };

  /// Asserts the pinned bit-identity: with every online extension off, the
  /// server reproduces the golden values exactly, to the last bit.
  void ExpectGolden(const OnlineServerConfig& config, const Golden& g) {
    StatusOr<OnlineServerResult> online = RunOnlineServer(model_, config);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    const OnlineServerResult& r = *online;
    EXPECT_EQ(r.shed, 0);
    EXPECT_EQ(r.completed + r.failed, g.answered);
    EXPECT_EQ(r.failed, g.failed);
    EXPECT_EQ(r.batches, g.batches);
    EXPECT_EQ(r.mean_batch_size, g.mean_batch_size);
    EXPECT_EQ(r.makespan_seconds, g.makespan_seconds);
    EXPECT_EQ(r.drive_busy_seconds, g.drive_busy_seconds);
    EXPECT_EQ(r.utilization, g.utilization);
    EXPECT_EQ(r.mean_response_seconds, g.mean_response_seconds);
    EXPECT_EQ(r.p95_response_seconds, g.p95_response_seconds);
    EXPECT_EQ(r.max_response_seconds, g.max_response_seconds);
    EXPECT_EQ(r.throughput_per_hour, g.throughput_per_hour);
    EXPECT_EQ(r.fault_retries, g.fault_retries);
    EXPECT_EQ(r.drive_resets, g.drive_resets);
    EXPECT_EQ(r.reschedules, g.reschedules);
    EXPECT_EQ(r.permanent_errors, g.permanent_errors);
    EXPECT_EQ(r.recovery_seconds, g.recovery_seconds);
    EXPECT_EQ(r.breaker_fast_fails, 0);
    EXPECT_TRUE(r.breaker_transitions.empty());
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(OnlineServerTest, BitIdenticalToQueueSimDefaults) {
  OnlineServerConfig config;
  config.total_requests = 150;
  config.arrival_rate_per_hour = 60.0;
  ExpectGolden(config,
               {150, 0, 42, 3.5714285714285716, 9710.1853834605554,
                9452.3041245290042, 0.97344218995336562, 315.589138399148,
                574.8835443480657, 666.22068395383394, 55.611708600310223, 0,
                0, 0, 0, 0.0});
}

TEST_F(OnlineServerTest, BitIdenticalToQueueSimAcrossPoliciesAndSeeds) {
  OnlineServerConfig config;
  config.total_requests = 100;
  config.arrival_rate_per_hour = 90.0;
  config.algorithm = sched::Algorithm::kFifo;
  config.seed = 77;
  ExpectGolden(config,
               {100, 0, 9, 11.111111111111111, 8125.5722106623107,
                8114.8016127503306, 0.99867448130017888, 2246.2189936968148,
                4192.1308358280821, 5083.463463020109, 44.304572117100982, 0,
                0, 0, 0, 0.0});

  config.algorithm = sched::Algorithm::kSltf;
  config.dispatch_min_batch = 6;
  config.dispatch_max_wait_seconds = 400.0;
  config.seed = 9;
  ExpectGolden(config,
               {100, 0, 7, 14.285714285714286, 5262.0200336608423,
                5082.2252891946619, 0.96583161156437192, 763.06495373222106,
                1436.9882554250344, 1922.8604195260141, 68.414790840228761, 0,
                0, 0, 0, 0.0});
}

TEST_F(OnlineServerTest, BitIdenticalToQueueSimUnderFaults) {
  // The fault path must replay draw for draw too (injector seeded from the
  // (faults.seed, seed) pair, recovering executor unchanged).
  OnlineServerConfig config;
  config.total_requests = 80;
  config.arrival_rate_per_hour = 70.0;
  config.faults = FaultProfile::Light();
  config.seed = 5;
  ExpectGolden(config,
               {80, 0, 20, 4.0, 4860.9147774714647, 4830.1084651447663,
                0.99366244549905003, 416.42247918260102, 903.21234879681515,
                1160.0633221192165, 59.248107235858789, 0, 0, 0, 0, 0.0});

  config.faults = FaultProfile::Heavy();
  config.seed = 21;
  ExpectGolden(config,
               {80, 0, 10, 8.0, 4422.2915278917344, 4422.2915278917344, 1.0,
                494.38429076373239, 928.54491321139017, 1092.3297594344413,
                65.124607498976886, 10, 0, 0, 0, 337.76820069555174});
}

TEST_F(OnlineServerTest, ReplicatedIsThreadCountInvariant) {
  OnlineServerConfig config;
  config.total_requests = 50;
  config.arrival_rate_per_hour = 100.0;
  config.faults = FaultProfile::Light();
  config.deadline_seconds = 900.0;
  config.admission.enabled = true;
  config.admission.max_queue_depth = 16;
  config.breaker_enabled = true;
  config.breaker.window_ops = 8;
  config.breaker.failure_threshold = 3;

  auto serial = RunReplicatedOnlineServer(model_, config, 6, /*threads=*/1);
  auto threaded = RunReplicatedOnlineServer(model_, config, 6, /*threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial->results.size(), threaded->results.size());
  for (size_t i = 0; i < serial->results.size(); ++i) {
    EXPECT_EQ(serial->results[i].completed, threaded->results[i].completed);
    EXPECT_EQ(serial->results[i].shed, threaded->results[i].shed);
    EXPECT_EQ(serial->results[i].p99_response_seconds,
              threaded->results[i].p99_response_seconds);
    EXPECT_EQ(serial->results[i].breaker_fast_fails,
              threaded->results[i].breaker_fast_fails);
  }
  EXPECT_EQ(serial->shed_fraction.mean(), threaded->shed_fraction.mean());
}

TEST_F(OnlineServerTest, AdmissionBoundsOverloadResponseTimes) {
  // FIFO saturates near 44 requests/hour; 100/hour is > 2x saturation.
  // Unbounded, the queue (and p99) grows without limit; with a depth cap
  // the admitted p99 stays bounded and every rejection is explicit.
  OnlineServerConfig overload;
  overload.total_requests = 300;
  overload.arrival_rate_per_hour = 100.0;
  overload.algorithm = sched::Algorithm::kFifo;

  StatusOr<OnlineServerResult> unbounded = RunOnlineServer(model_, overload);
  ASSERT_TRUE(unbounded.ok());

  OnlineServerConfig capped = overload;
  capped.admission.enabled = true;
  capped.admission.max_queue_depth = 12;
  StatusOr<OnlineServerResult> bounded = RunOnlineServer(model_, capped);
  ASSERT_TRUE(bounded.ok());

  EXPECT_EQ(bounded->shed + bounded->completed + bounded->failed,
            bounded->arrivals);
  EXPECT_GT(bounded->shed, 0);
  ASSERT_EQ(bounded->shed_records.size(),
            static_cast<size_t>(bounded->shed));
  for (const ShedRecord& s : bounded->shed_records) {
    EXPECT_FALSE(s.status.ok());
    EXPECT_EQ(s.status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(s.status.message().empty());
  }
  // Bounded: with at most 12 queued plus one batch in flight, a response
  // can never exceed ~25 mean service times (~85 s each). The unbounded
  // queue blows far past it.
  EXPECT_LT(bounded->p99_response_seconds, 3600.0);
  EXPECT_LT(bounded->p99_response_seconds,
            unbounded->p99_response_seconds / 2.0);
  EXPECT_GT(unbounded->p99_response_seconds, 3600.0);
}

TEST_F(OnlineServerTest, DeadlineSheddingIsExplicit) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 100.0;
  config.algorithm = sched::Algorithm::kFifo;
  config.deadline_seconds = 400.0;
  config.deadline_spread = 0.5;
  config.admission.enabled = true;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->shed + r->completed + r->failed, r->arrivals);
  EXPECT_GT(r->shed, 0);  // 2x saturation: deadlines must become infeasible
  for (const ShedRecord& s : r->shed_records) {
    EXPECT_EQ(s.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(s.status.message().empty());
  }
  // Feasibility checking keeps admitted misses rare compared to admitting
  // everything blindly.
  OnlineServerConfig blind = config;
  blind.admission.enabled = false;
  StatusOr<OnlineServerResult> b = RunOnlineServer(model_, blind);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->shed, 0);
  EXPECT_LT(r->deadline_missed, b->deadline_missed);
}

TEST_F(OnlineServerTest, AgingBoundHolds) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 300.0;
  config.dispatch_max_batch = 6;
  config.priority_classes = 3;
  config.max_wait_cycles = 4;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->completed + r->failed, config.total_requests);
  EXPECT_LT(r->max_wait_cycles_observed, config.max_wait_cycles);

  // Without the bound, the same capped overload starves someone for
  // longer (priorities keep pushing class-2 requests to the back).
  OnlineServerConfig unbound = config;
  unbound.max_wait_cycles = 0;
  StatusOr<OnlineServerResult> u = RunOnlineServer(model_, unbound);
  ASSERT_TRUE(u.ok());
  EXPECT_GE(u->max_wait_cycles_observed, config.max_wait_cycles);
}

TEST_F(OnlineServerTest, DegradationLadderStepsDownUnderBacklog) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 400.0;
  config.degradation.enabled = true;
  config.degradation.rungs = {"loss", "scan", "fifo"};
  config.degradation.queue_depth_step = 12;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->completed + r->failed, config.total_requests);
  EXPECT_GT(r->degraded_batches, 0);
  EXPECT_GE(r->degradation_max_rung, 1);
  EXPECT_LE(r->degradation_max_rung,
            static_cast<int>(config.degradation.rungs.size()) - 1);
}

TEST_F(OnlineServerTest, BreakerCycleExercisedDeterministically) {
  OnlineServerConfig config;
  config.total_requests = 120;
  config.arrival_rate_per_hour = 60.0;
  config.faults = FaultProfile::Heavy().Scaled(4.0);
  config.breaker_enabled = true;
  config.breaker.window_ops = 8;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown_seconds = 120.0;
  config.breaker.half_open_successes = 1;

  StatusOr<OnlineServerResult> a = RunOnlineServer(model_, config);
  StatusOr<OnlineServerResult> b = RunOnlineServer(model_, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // The breaker must actually cycle: open at least once, and return from
  // half-open at least once (either verdict).
  ASSERT_GE(a->breaker_transitions.size(), 2u);
  bool opened = false;
  bool probed = false;
  for (size_t i = 0; i < a->breaker_transitions.size(); ++i) {
    const drive::BreakerTransition& t = a->breaker_transitions[i];
    if (i > 0) {
      EXPECT_EQ(t.from, a->breaker_transitions[i - 1].to)
          << "transition chain must be contiguous";
    }
    bool legal =
        (t.from == drive::BreakerState::kClosed &&
         t.to == drive::BreakerState::kOpen) ||
        (t.from == drive::BreakerState::kOpen &&
         t.to == drive::BreakerState::kHalfOpen) ||
        (t.from == drive::BreakerState::kHalfOpen &&
         t.to == drive::BreakerState::kClosed) ||
        (t.from == drive::BreakerState::kHalfOpen &&
         t.to == drive::BreakerState::kOpen);
    EXPECT_TRUE(legal) << "illegal transition at index " << i;
    if (t.to == drive::BreakerState::kOpen) opened = true;
    if (t.from == drive::BreakerState::kHalfOpen) probed = true;
  }
  EXPECT_TRUE(opened);
  EXPECT_TRUE(probed);
  EXPECT_GT(a->breaker_fast_fails, 0);
  EXPECT_GT(a->breaker_wait_seconds, 0.0);

  // Deterministic: the full trajectory replays bit for bit.
  ASSERT_EQ(a->breaker_transitions.size(), b->breaker_transitions.size());
  for (size_t i = 0; i < a->breaker_transitions.size(); ++i) {
    EXPECT_EQ(a->breaker_transitions[i].at_seconds,
              b->breaker_transitions[i].at_seconds);
    EXPECT_EQ(a->breaker_transitions[i].to, b->breaker_transitions[i].to);
  }
  EXPECT_EQ(a->completed, b->completed);
  EXPECT_EQ(a->breaker_wait_seconds, b->breaker_wait_seconds);
}

TEST_F(OnlineServerTest, ValidateRejectsGarbageConfigs) {
  OnlineServerConfig ok;
  EXPECT_TRUE(ValidateOnlineServerConfig(ok).ok());

  OnlineServerConfig c = ok;
  c.arrival_rate_per_hour = std::nan("");
  EXPECT_EQ(RunOnlineServer(model_, c).status().code(),
            StatusCode::kInvalidArgument);

  c = ok;
  c.total_requests = 0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.deadline_seconds = -5.0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.priority_classes = 0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.admission.enabled = true;
  c.admission.slack = 0.0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.degradation.enabled = true;
  c.degradation.rungs = {"loss", "no-such-scheduler"};
  Status bad_rung = ValidateOnlineServerConfig(c);
  EXPECT_EQ(bad_rung.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_rung.message().find("no-such-scheduler"), std::string::npos);

  c = ok;
  c.faults.transient_read_rate = 1.5;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.fault_retry.backoff_multiplier = std::nan("");
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.breaker_enabled = true;
  c.breaker.window_ops = -1;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());
}

}  // namespace
}  // namespace serpentine::sim
