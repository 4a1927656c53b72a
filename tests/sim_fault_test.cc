#include "serpentine/drive/fault_injector.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"

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

using sched::Algorithm;
using sched::BuildSchedule;
using sched::Request;
using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;
using tape::TapeGeometry;

class FaultTest : public ::testing::Test {
 protected:
  FaultTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> UniformBatch(int n, int32_t seed) {
    Lrand48 rng(seed);
    return GenerateUniformRequests(rng, n,
                                   model_.geometry().total_segments());
  }

  Dlt4000LocateModel model_;
};

/// FaultDrive(ModelDrive(model)): the stack the executor runs on.
struct FaultStack {
  FaultStack(const tape::LocateModel& model, FaultInjector* injector)
      : base(model), fault(&base, injector) {}
  drive::ModelDrive base;
  drive::FaultDrive fault;
};

// ---------------------------------------------------------------------------
// FaultProfile.
// ---------------------------------------------------------------------------

TEST(FaultProfileTest, DefaultAndNoneInjectNothing) {
  EXPECT_FALSE(FaultProfile().any());
  EXPECT_FALSE(FaultProfile::None().any());
  EXPECT_TRUE(FaultProfile::Light().any());
  EXPECT_TRUE(FaultProfile::Heavy().any());
}

TEST(FaultProfileTest, ScaledClampsRatesToProbabilities) {
  FaultProfile p = FaultProfile::Heavy().Scaled(1000.0);
  EXPECT_LE(p.transient_read_rate, 1.0);
  EXPECT_LE(p.locate_overshoot_rate, 1.0);
  EXPECT_LE(p.drive_reset_rate, 1.0);
  EXPECT_LE(p.permanent_error_rate, 1.0);
  EXPECT_LE(p.mount_failure_rate, 1.0);
  EXPECT_FALSE(FaultProfile::Heavy().Scaled(0.0).any());
  // Timings and seed are untouched by scaling.
  EXPECT_DOUBLE_EQ(p.reset_seconds, FaultProfile::Heavy().reset_seconds);
  EXPECT_EQ(p.seed, FaultProfile::Heavy().seed);
}

TEST(FaultProfileTest, ClassifiesOnlyMediaErrorsAsPermanent) {
  EXPECT_EQ(ClassifyFault(FaultType::kPermanentMediaError),
            ErrorClass::kPermanent);
  EXPECT_EQ(ClassifyFault(FaultType::kTransientReadError),
            ErrorClass::kRetryable);
  EXPECT_EQ(ClassifyFault(FaultType::kLocateOvershoot),
            ErrorClass::kRetryable);
  EXPECT_EQ(ClassifyFault(FaultType::kDriveReset), ErrorClass::kRetryable);
  EXPECT_EQ(ClassifyFault(FaultType::kRobotFault), ErrorClass::kRetryable);
}

TEST(FaultProfileTest, LoadsNamedProfiles) {
  auto none = LoadFaultProfile("none");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->any());
  auto light = LoadFaultProfile("light");
  ASSERT_TRUE(light.ok());
  EXPECT_DOUBLE_EQ(light->transient_read_rate,
                   FaultProfile::Light().transient_read_rate);
  auto heavy = LoadFaultProfile("heavy");
  ASSERT_TRUE(heavy.ok());
  EXPECT_DOUBLE_EQ(heavy->drive_reset_rate,
                   FaultProfile::Heavy().drive_reset_rate);
}

TEST(FaultProfileTest, LoadsKeyValueFile) {
  std::string path = testing::TempDir() + "/fault_profile.conf";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# a drive having a very specific day\n"
             "transient_read_rate = 0.25\n"
             "reset_seconds = 99.5\n"
             "seed = 777\n\n",
             f);
  std::fclose(f);
  auto profile = LoadFaultProfile(path);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_DOUBLE_EQ(profile->transient_read_rate, 0.25);
  EXPECT_DOUBLE_EQ(profile->reset_seconds, 99.5);
  EXPECT_EQ(profile->seed, 777);
  // Unlisted keys keep their defaults.
  EXPECT_DOUBLE_EQ(profile->drive_reset_rate, 0.0);
}

TEST(FaultProfileTest, RejectsUnknownKeysAndMissingFiles) {
  std::string path = testing::TempDir() + "/bad_profile.conf";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("blorp_rate = 0.5\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadFaultProfile(path).ok());
  EXPECT_FALSE(LoadFaultProfile("/no/such/file").ok());
}

// ---------------------------------------------------------------------------
// FaultInjector determinism.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameStream) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector a(profile);
  FaultInjector b(profile);
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.DrawLocateFault(), b.DrawLocateFault());
    EXPECT_EQ(a.DrawReadFault(i), b.DrawReadFault(i));
    EXPECT_EQ(a.DrawMountFault(), b.DrawMountFault());
    EXPECT_EQ(a.OvershootTarget(g, 1000 + i), b.OvershootTarget(g, 1000 + i));
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.bad_segments(), b.bad_segments());
}

TEST(FaultInjectorTest, ReseedRestartsTheStream) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector a(profile);
  std::vector<FaultType> first;
  for (int i = 0; i < 50; ++i) first.push_back(a.DrawLocateFault());
  a.Reseed(profile.seed);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.DrawLocateFault(), first[i]);
}

TEST(FaultInjectorTest, StickyBadSegmentsConsumeNoDraw) {
  FaultProfile profile;
  profile.permanent_error_rate = 1.0;
  FaultInjector a(profile);
  FaultInjector b(profile);
  EXPECT_EQ(a.DrawReadFault(42), FaultType::kPermanentMediaError);
  EXPECT_TRUE(a.IsBadSegment(42));
  // Re-reading the bad segment must not advance the stream: after one extra
  // sticky hit, `a` still agrees with `b` (which never re-read) on the
  // subsequent mount draws.
  EXPECT_EQ(a.DrawReadFault(42), FaultType::kPermanentMediaError);
  EXPECT_EQ(b.DrawReadFault(42), FaultType::kPermanentMediaError);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.DrawMountFault(), b.DrawMountFault());
  }
}

TEST(FaultInjectorTest, OvershootTargetNearButNeverAtDestination) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector injector(profile);
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  Lrand48 rng(7);
  for (int i = 0; i < 500; ++i) {
    SegmentId dst = rng.NextBounded(g.total_segments());
    SegmentId settled = injector.OvershootTarget(g, dst);
    EXPECT_NE(settled, dst);
    EXPECT_GE(settled, 0);
    EXPECT_LT(settled, g.total_segments());
  }
}

TEST(FaultInjectorTest, ZeroProfileNeverInjects) {
  FaultInjector injector(FaultProfile{});
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(injector.DrawLocateFault(), FaultType::kNone);
    EXPECT_EQ(injector.DrawReadFault(i), FaultType::kNone);
    EXPECT_FALSE(injector.DrawMountFault());
  }
  EXPECT_EQ(injector.faults_injected(), 0);
}

// ---------------------------------------------------------------------------
// RecoveringExecutor: zero faults charge exactly the estimate.
//
// The %.17g goldens were recorded from the separate fault-free loop
// ExecuteSchedule ran before every schedule went through this executor.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ZeroFaultsReproduceExecuteScheduleExactly) {
  struct Golden {
    Algorithm algorithm;
    double total;
    double locate;
    SegmentId final_position;
  };
  const Golden goldens[] = {
      {Algorithm::kLoss, 1910.8375786682168, 1909.7675292822007, 597416},
      {Algorithm::kSltf, 2115.1207055001851, 2114.0506561141692, 505094},
      {Algorithm::kFifo, 3828.2154661206232, 3827.1454167346074, 249593},
  };
  for (const Golden& golden : goldens) {
    auto schedule = BuildSchedule(model_, 5000, UniformBatch(48, 11),
                                  golden.algorithm);
    ASSERT_TRUE(schedule.ok());
    double estimate = sched::EstimateScheduleSeconds(model_, *schedule);
    EXPECT_EQ(ExecuteSchedule(model_, *schedule).total_seconds, estimate);

    FaultInjector zero{FaultProfile{}};
    for (FaultInjector* injector : {static_cast<FaultInjector*>(nullptr),
                                    &zero}) {
      FaultStack stack(model_, injector);
      RecoveringExecutionResult r =
          RecoveringExecutor(stack.fault, model_).Execute(*schedule);
      // Bitwise, not approximate: the fault-aware path must not perturb the
      // paper's figures at all.
      EXPECT_EQ(r.total_seconds, estimate);
      EXPECT_EQ(r.total_seconds, golden.total);
      EXPECT_EQ(r.locate_seconds, golden.locate);
      EXPECT_EQ(r.read_seconds, 1.0700493860160167);
      EXPECT_EQ(r.rewind_seconds, 0.0);
      EXPECT_EQ(r.final_position, golden.final_position);
      EXPECT_EQ(r.locates, 48);
      EXPECT_EQ(r.segments_read, 48);
      EXPECT_EQ(r.recovery_seconds, 0.0);
      EXPECT_EQ(r.requests_serviced, 48);
      EXPECT_TRUE(r.abandoned_segments.empty());
    }
  }
}

TEST_F(FaultTest, ZeroFaultsReproduceExecuteScheduleWithRewind) {
  auto schedule = BuildSchedule(model_, 0, UniformBatch(16, 3),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  sched::EstimateOptions estimate;
  estimate.rewind_at_end = true;
  RecoveryOptions options;
  options.estimate = estimate;
  FaultStack stack(model_, nullptr);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_, options).Execute(*schedule);
  EXPECT_EQ(r.total_seconds,
            sched::EstimateScheduleSeconds(model_, *schedule, estimate));
  EXPECT_EQ(r.total_seconds, 799.53802262436773);
  EXPECT_EQ(r.rewind_seconds, 65.612832215247209);
  EXPECT_EQ(r.final_position, 0);
}

TEST_F(FaultTest, ZeroFaultsReproduceFullTapeScan) {
  auto schedule = BuildSchedule(model_, 1234, UniformBatch(8, 5),
                                Algorithm::kRead);
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(schedule->full_tape_scan);
  FaultStack stack(model_, nullptr);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_).Execute(*schedule);
  EXPECT_EQ(r.total_seconds,
            sched::EstimateScheduleSeconds(model_, *schedule));
  EXPECT_EQ(r.total_seconds, 14283.763717432656);
  EXPECT_EQ(r.read_seconds, 14281.75);
  EXPECT_EQ(r.rewind_seconds, 2.0137174326556);
  EXPECT_EQ(r.final_position, 0);
  EXPECT_EQ(r.segments_read, 622542);
  EXPECT_EQ(r.requests_serviced, 8);
}

TEST_F(FaultTest, EmptyScheduleIsZeroWork) {
  sched::Schedule empty;
  empty.initial_position = 777;
  FaultStack stack(model_, nullptr);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_).Execute(empty);
  EXPECT_EQ(r.total_seconds, 0.0);
  EXPECT_EQ(r.final_position, 777);
  EXPECT_EQ(r.requests_serviced, 0);
}

// ---------------------------------------------------------------------------
// RecoveringExecutor: recovery behavior.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DeterministicUnderFaults) {
  FaultProfile profile = FaultProfile::Heavy();
  auto schedule = BuildSchedule(model_, 0, UniformBatch(32, 9),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  FaultInjector a(profile);
  FaultInjector b(profile);
  FaultStack stack_a(model_, &a);
  FaultStack stack_b(model_, &b);
  RecoveringExecutionResult ra =
      RecoveringExecutor(stack_a.fault, model_).Execute(*schedule);
  RecoveringExecutionResult rb =
      RecoveringExecutor(stack_b.fault, model_).Execute(*schedule);
  EXPECT_EQ(ra.total_seconds, rb.total_seconds);
  EXPECT_EQ(ra.recovery_seconds, rb.recovery_seconds);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.reschedules, rb.reschedules);
  EXPECT_EQ(ra.abandoned_segments, rb.abandoned_segments);
  EXPECT_EQ(ra.final_position, rb.final_position);
}

TEST_F(FaultTest, EveryRequestServicedOrAbandoned) {
  for (double intensity : {0.5, 1.0, 3.0}) {
    FaultProfile profile = FaultProfile::Heavy().Scaled(intensity);
    FaultInjector injector(profile);
    auto schedule = BuildSchedule(model_, 0, UniformBatch(40, 13),
                                  Algorithm::kLoss);
    ASSERT_TRUE(schedule.ok());
    int callbacks = 0, failures = 0;
    double last_at = 0.0;
    FaultStack stack(model_, &injector);
    RecoveringExecutionResult r =
        RecoveringExecutor(stack.fault, model_)
            .Execute(*schedule, [&](const Request&, double step, bool ok) {
              ++callbacks;
              if (!ok) ++failures;
              EXPECT_GE(step, 0.0);  // completion stamps are monotone
              last_at += step;
            });
    EXPECT_EQ(callbacks, 40);
    EXPECT_EQ(failures,
              static_cast<int>(r.abandoned_segments.size()));
    EXPECT_EQ(r.requests_serviced +
                  static_cast<int64_t>(r.abandoned_segments.size()),
              40);
    EXPECT_NEAR(r.total_seconds,
                r.locate_seconds + r.read_seconds + r.rewind_seconds +
                    r.recovery_seconds,
                1e-9);
    EXPECT_GE(r.recovery_seconds, 0.0);
    EXPECT_NEAR(last_at + r.tail_seconds, r.total_seconds,
                1e-9 * r.total_seconds);
  }
}

TEST_F(FaultTest, PermanentMediaErrorsAreSkippedAndReported) {
  FaultProfile profile;
  profile.permanent_error_rate = 1.0;  // every span is unreadable
  FaultInjector injector(profile);
  auto schedule = BuildSchedule(model_, 0, UniformBatch(12, 17),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_).Execute(*schedule);
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 12u);
  EXPECT_EQ(r.permanent_errors, 12);
  EXPECT_EQ(r.segments_read, 0);
  EXPECT_GT(r.reschedules, 0);  // each loss re-plans the remainder
}

TEST_F(FaultTest, RetryExhaustionAbandonsUnderPureTransients) {
  FaultProfile profile;
  profile.transient_read_rate = 1.0;  // every read attempt fails
  FaultInjector injector(profile);
  RecoveryOptions options;
  options.retry.max_attempts = 3;
  auto schedule = BuildSchedule(model_, 0, UniformBatch(6, 19),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_, options).Execute(*schedule);
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 6u);
  // Each request burned max_attempts passes, max_attempts - 1 backoffs.
  EXPECT_EQ(r.transient_read_errors, 6 * 3);
  EXPECT_EQ(r.retries, 6 * 2);
  EXPECT_GT(r.recovery_seconds, 0.0);
}

TEST_F(FaultTest, DriveResetStormTerminates) {
  FaultProfile profile;
  profile.drive_reset_rate = 1.0;  // every locate resets the drive
  FaultInjector injector(profile);
  auto schedule = BuildSchedule(model_, 0, UniformBatch(8, 23),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  RecoveryOptions options;
  options.max_reschedules = 4;
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_, options).Execute(*schedule);
  // The plan can never progress; the executor must still come back with
  // every request accounted for and the reschedule budget respected.
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 8u);
  EXPECT_LE(r.reschedules, 4);
  EXPECT_GT(r.drive_resets, 0);
  EXPECT_EQ(r.final_position, 0);  // the last reset left the head at BOT
}

TEST_F(FaultTest, ReschedulingCanBeDisabled) {
  FaultProfile profile;
  profile.permanent_error_rate = 0.3;
  FaultInjector injector(profile);
  RecoveryOptions options;
  options.reschedule_after_fault = false;
  auto schedule = BuildSchedule(model_, 0, UniformBatch(32, 29),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_, options).Execute(*schedule);
  EXPECT_EQ(r.reschedules, 0);
  EXPECT_EQ(r.requests_serviced +
                static_cast<int64_t>(r.abandoned_segments.size()),
            32);
}

TEST_F(FaultTest, TransientFaultsOnlyAddTime) {
  auto schedule = BuildSchedule(model_, 0, UniformBatch(32, 31),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  double estimate = sched::EstimateScheduleSeconds(model_, *schedule);
  EXPECT_EQ(estimate, 1313.627559904759);
  FaultProfile profile;
  profile.transient_read_rate = 0.2;
  FaultInjector injector(profile);
  RecoveryOptions options;
  options.retry.max_attempts = 12;  // exhaustion essentially impossible
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_, options).Execute(*schedule);
  // Transient read errors retry in place: the service order and head
  // motion are untouched, so the useful work is the fault-free estimate
  // and the faults only add recovery time on top.
  EXPECT_EQ(r.locate_seconds + r.read_seconds, estimate);
  EXPECT_EQ(r.locate_seconds, 1312.923451939364);
  EXPECT_EQ(r.read_seconds, 0.70410796539495257);
  EXPECT_EQ(r.requests_serviced, 32);
  EXPECT_EQ(r.recovery_seconds, 24.698527120512178);
  EXPECT_EQ(r.retries, 9);
  EXPECT_GT(r.total_seconds, estimate);
}

TEST_F(FaultTest, SingleRequestResetStormTerminates) {
  FaultProfile profile;
  profile.drive_reset_rate = 1.0;
  FaultInjector injector(profile);
  sched::Schedule schedule;
  schedule.order = {Request{100000, 1}};
  FaultStack stack(model_, &injector);
  RecoveringExecutionResult r =
      RecoveringExecutor(stack.fault, model_).Execute(schedule);
  // With nothing to re-plan, resets burn the retry budget and the lone
  // request is abandoned — never an infinite reschedule loop.
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 1u);
  EXPECT_EQ(r.reschedules, 0);
}

// ---------------------------------------------------------------------------
// PhysicalDrive under faults.
// ---------------------------------------------------------------------------

TEST(PhysicalDriveFaultTest, ResetNoiseMakesMeasurementsReproducible) {
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 3);
  PhysicalDrive drive(truth, Dlt4000Timings());
  std::vector<double> first;
  Lrand48 rng(41);
  std::vector<std::pair<SegmentId, SegmentId>> pairs;
  for (int i = 0; i < 100; ++i) {
    pairs.emplace_back(rng.NextBounded(truth.total_segments()),
                       rng.NextBounded(truth.total_segments()));
  }
  for (auto [src, dst] : pairs)
    first.push_back(drive.LocateSeconds(src, dst));
  drive.ResetNoise(8191);  // the params' default noise seed
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(drive.LocateSeconds(pairs[i].first, pairs[i].second), first[i])
        << "measurement " << i;
  }
}

TEST(PhysicalDriveFaultTest, RecoveringExecutorDeterministicOnPhysicalDrive) {
  // A PhysicalDrive is stateful (SupportsConcurrentUse() == false); two
  // identically-seeded drives plus identically-seeded injectors must yield
  // bit-identical executions — the property the serial fallback in the
  // parallel harnesses relies on.
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 3);
  Dlt4000LocateModel believed(truth, Dlt4000Timings());
  auto batch = [&] {
    Lrand48 rng(7);
    return GenerateUniformRequests(rng, 24, truth.total_segments());
  }();
  auto schedule = BuildSchedule(believed, 0, batch, Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  FaultProfile profile = FaultProfile::Light().Scaled(5.0);
  auto run = [&] {
    PhysicalDrive drive(truth, Dlt4000Timings());
    FaultInjector injector(profile);
    FaultStack stack(drive, &injector);
    return RecoveringExecutor(stack.fault, believed).Execute(*schedule);
  };
  RecoveringExecutionResult a = run();
  RecoveringExecutionResult b = run();
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned_segments, b.abandoned_segments);
}

}  // namespace
}  // namespace serpentine::sim
