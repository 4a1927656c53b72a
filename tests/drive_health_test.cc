#include "serpentine/drive/health_drive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::drive {
namespace {

/// A drive whose op outcomes follow a script: each gated op pops the next
/// status (empty script = kOk). Every op charges 1 virtual second so the
/// breaker clock advances predictably.
class ScriptedDrive : public Drive {
 public:
  explicit ScriptedDrive(const tape::LocateModel& model) : model_(model) {}

  std::deque<OpStatus> script;

  OpResult Locate(tape::SegmentId dst) override {
    position_ = dst;
    return Next(/*locate=*/true);
  }
  OpResult ReadSegments(tape::SegmentId, tape::SegmentId to) override {
    position_ = to;
    return Next(/*locate=*/false);
  }
  OpResult Rewind() override {
    position_ = 0;
    OpResult r;
    r.times.rewind_seconds = 1.0;
    r.position = 0;
    return r;
  }
  tape::SegmentId Position() const override { return position_; }
  void SetPosition(tape::SegmentId position) override { position_ = position; }
  const tape::LocateModel& model() const override { return model_; }

 private:
  OpResult Next(bool locate) {
    OpResult r;
    if (!script.empty()) {
      r.status = script.front();
      script.pop_front();
    }
    if (r.ok()) {
      (locate ? r.times.locate_seconds : r.times.read_seconds) = 1.0;
    } else {
      r.times.recovery_seconds = 1.0;
    }
    r.position = position_;
    return r;
  }

  const tape::LocateModel& model_;
  tape::SegmentId position_ = 0;
};

class HealthDriveTest : public ::testing::Test {
 protected:
  HealthDriveTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()),
        scripted_(model_) {}

  BreakerPolicy TightPolicy() {
    BreakerPolicy p;
    p.window_ops = 4;
    p.failure_threshold = 2;
    p.cooldown_seconds = 50.0;
    p.half_open_successes = 2;
    p.fail_fast_seconds = 0.25;
    return p;
  }

  tape::Dlt4000LocateModel model_;
  ScriptedDrive scripted_;
};

TEST_F(HealthDriveTest, ValidateRejectsGarbagePolicies) {
  EXPECT_TRUE(ValidateBreakerPolicy(BreakerPolicy{}).ok());
  BreakerPolicy p;
  p.window_ops = 0;
  EXPECT_EQ(ValidateBreakerPolicy(p).code(), StatusCode::kInvalidArgument);
  p = BreakerPolicy{};
  p.failure_threshold = p.window_ops + 1;  // more failures than window slots
  EXPECT_FALSE(ValidateBreakerPolicy(p).ok());
  p = BreakerPolicy{};
  p.cooldown_seconds = std::nan("");
  EXPECT_FALSE(ValidateBreakerPolicy(p).ok());
  p = BreakerPolicy{};
  p.slow_op_seconds = -1.0;
  EXPECT_FALSE(ValidateBreakerPolicy(p).ok());
  p = BreakerPolicy{};
  p.fail_fast_seconds = -0.1;
  EXPECT_FALSE(ValidateBreakerPolicy(p).ok());
  EXPECT_FALSE(ValidateBreakerPolicy(p).message().empty());
}

TEST_F(HealthDriveTest, OpenHalfOpenCloseCycleIsDeterministic) {
  // Script: two failures trip the breaker; after the fail-fast wait, two
  // probe successes close it again.
  HealthDrive health(&scripted_, TightPolicy());
  scripted_.script = {OpStatus::kTransientReadError,
                      OpStatus::kLocateOvershoot};

  EXPECT_EQ(health.breaker().state(), BreakerState::kClosed);
  EXPECT_FALSE(health.ReadSegments(0, 0).ok());   // failure 1
  EXPECT_EQ(health.breaker().state(), BreakerState::kClosed);
  EXPECT_FALSE(health.Locate(5).ok());            // failure 2 -> trips
  EXPECT_EQ(health.breaker().state(), BreakerState::kOpen);

  // Refused op: kCircuitOpen, charged fail_fast + remaining cooldown, and
  // the cooldown reported separately in retry_after_seconds.
  double before = health.clock_seconds();
  OpResult refused = health.Locate(7);
  EXPECT_EQ(refused.status, OpStatus::kCircuitOpen);
  EXPECT_DOUBLE_EQ(refused.retry_after_seconds, 50.0);
  EXPECT_DOUBLE_EQ(refused.times.recovery_seconds, 50.25);
  EXPECT_DOUBLE_EQ(health.clock_seconds(), before + 50.25);
  EXPECT_EQ(health.breaker().fast_fails(), 1);

  // Past the cooldown: the next two ops are probes and close the breaker.
  EXPECT_TRUE(health.Locate(7).ok());
  EXPECT_EQ(health.breaker().state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(health.ReadSegments(7, 7).ok());
  EXPECT_EQ(health.breaker().state(), BreakerState::kClosed);

  // Full recorded cycle: closed -> open -> half-open -> closed.
  const auto& ts = health.breaker().transitions();
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].from, BreakerState::kClosed);
  EXPECT_EQ(ts[0].to, BreakerState::kOpen);
  EXPECT_EQ(ts[1].from, BreakerState::kOpen);
  EXPECT_EQ(ts[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(ts[2].from, BreakerState::kHalfOpen);
  EXPECT_EQ(ts[2].to, BreakerState::kClosed);
  EXPECT_EQ(health.breaker().opens(), 1);
}

TEST_F(HealthDriveTest, FailedProbeReopens) {
  HealthDrive health(&scripted_, TightPolicy());
  scripted_.script = {OpStatus::kTransientReadError,
                      OpStatus::kTransientReadError,  // trips
                      OpStatus::kDriveReset};         // the probe fails
  EXPECT_FALSE(health.ReadSegments(0, 0).ok());
  EXPECT_FALSE(health.ReadSegments(1, 1).ok());
  EXPECT_EQ(health.breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(health.ReadSegments(2, 2).status, OpStatus::kCircuitOpen);
  EXPECT_FALSE(health.ReadSegments(2, 2).ok());  // probe: real attempt
  EXPECT_EQ(health.breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(health.breaker().opens(), 2);
}

TEST_F(HealthDriveTest, MeterCountsBreakerRefusals) {
  // Metered(Health(Scripted)): the meter sees what the breaker returns, so
  // its refusals must show up as breaker fast-fails, not vanish.
  HealthDrive health(&scripted_, TightPolicy());
  MeteredDrive metered(&health);
  scripted_.script = {OpStatus::kTransientReadError,
                      OpStatus::kTransientReadError};  // trips
  EXPECT_FALSE(metered.ReadSegments(0, 0).ok());
  EXPECT_FALSE(metered.ReadSegments(1, 1).ok());
  ASSERT_EQ(health.breaker().state(), BreakerState::kOpen);
  EXPECT_EQ(metered.Locate(7).status, OpStatus::kCircuitOpen);

  const DriveMetrics& m = metered.metrics();
  EXPECT_EQ(m.breaker_fast_fails, 1);
  EXPECT_EQ(m.breaker_fast_fails, health.breaker().fast_fails());
  EXPECT_EQ(m.transient_read_errors, 2);
  EXPECT_EQ(m.faults(), 2);  // a refusal is not a drive fault
  // Two 1 s failures plus the refusal's fail_fast + cooldown.
  EXPECT_DOUBLE_EQ(m.recovery_seconds, 2.0 + 50.25);
  EXPECT_NE(m.ToJson("tripped").find("\"breaker_fast_fails\":1"),
            std::string::npos);

  obs::MetricsRegistry registry;
  m.PublishTo(registry, "drive");
  EXPECT_EQ(registry.counter("drive.breaker_fast_fails").value(), 1);
}

TEST_F(HealthDriveTest, RewindIsNeverGated) {
  HealthDrive health(&scripted_, TightPolicy());
  scripted_.script = {OpStatus::kTransientReadError,
                      OpStatus::kTransientReadError};
  health.ReadSegments(0, 0);
  health.ReadSegments(1, 1);
  ASSERT_EQ(health.breaker().state(), BreakerState::kOpen);
  EXPECT_TRUE(health.Rewind().ok());  // recovery can always rewind
}

TEST_F(HealthDriveTest, SlowOpsCountAsFailures) {
  BreakerPolicy policy = TightPolicy();
  policy.slow_op_seconds = 0.5;  // every scripted op takes 1 s
  HealthDrive health(&scripted_, policy);
  EXPECT_TRUE(health.Locate(3).ok());
  EXPECT_TRUE(health.Locate(4).ok());
  EXPECT_EQ(health.breaker().state(), BreakerState::kOpen);
}

TEST_F(HealthDriveTest, TransparentOverHealthyDrive) {
  // Zero faults: the decorator observes successes and never interferes.
  ModelDrive base(model_);
  HealthDrive health(&base, BreakerPolicy{});
  OpResult direct = base.Locate(100);
  base.SetPosition(0);
  OpResult decorated = health.Locate(100);
  EXPECT_EQ(decorated.status, OpStatus::kOk);
  EXPECT_DOUBLE_EQ(decorated.times.locate_seconds,
                   direct.times.locate_seconds);
  EXPECT_TRUE(health.breaker().transitions().empty());
}

TEST_F(HealthDriveTest, DeterministicOverSeededFaultStream) {
  // Same seed, same policy -> bit-identical breaker trajectory.
  auto run = [&](std::vector<double>* stamps) {
    FaultProfile profile;
    profile.transient_read_rate = 0.6;
    FaultInjector injector(profile);
    ModelDrive base(model_);
    FaultDrive faulty(&base, &injector);
    BreakerPolicy policy = TightPolicy();
    HealthDrive health(&faulty, policy);
    for (int i = 0; i < 40; ++i) {
      health.ReadSegments(i, i);
    }
    for (const BreakerTransition& t : health.breaker().transitions()) {
      stamps->push_back(t.at_seconds);
    }
  };
  std::vector<double> a;
  std::vector<double> b;
  run(&a);
  run(&b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace serpentine::drive
