#include "serpentine/drive/drive.h"

#include <vector>

#include <gtest/gtest.h>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::drive {
namespace {

using sched::Algorithm;
using sched::BuildSchedule;
using sched::Request;
using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;
using tape::TapeGeometry;

class DriveTest : public ::testing::Test {
 protected:
  DriveTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> UniformBatch(int n, int32_t seed) {
    Lrand48 rng(seed);
    return sim::GenerateUniformRequests(rng, n,
                                        model_.geometry().total_segments());
  }

  Dlt4000LocateModel model_;
};

// ---------------------------------------------------------------------------
// OpStatus / OpTimes.
// ---------------------------------------------------------------------------

TEST(OpStatusTest, NamesAreStable) {
  EXPECT_STREQ(OpStatusName(OpStatus::kOk), "ok");
  EXPECT_STREQ(OpStatusName(OpStatus::kTransientReadError), "transient-read");
  EXPECT_STREQ(OpStatusName(OpStatus::kLocateOvershoot), "locate-overshoot");
  EXPECT_STREQ(OpStatusName(OpStatus::kDriveReset), "drive-reset");
  EXPECT_STREQ(OpStatusName(OpStatus::kPermanentMediaError),
               "permanent-media");
}

TEST(OpStatusTest, OnlySoftFaultsAreRetryable) {
  EXPECT_FALSE(IsRetryable(OpStatus::kOk));
  EXPECT_TRUE(IsRetryable(OpStatus::kTransientReadError));
  EXPECT_TRUE(IsRetryable(OpStatus::kLocateOvershoot));
  EXPECT_TRUE(IsRetryable(OpStatus::kDriveReset));
  EXPECT_FALSE(IsRetryable(OpStatus::kPermanentMediaError));
}

TEST(OpTimesTest, TotalSumsAllPhases) {
  OpTimes t;
  t.locate_seconds = 1.0;
  t.read_seconds = 2.0;
  t.rewind_seconds = 4.0;
  t.recovery_seconds = 8.0;
  EXPECT_DOUBLE_EQ(t.total(), 15.0);
}

// ---------------------------------------------------------------------------
// ModelDrive: every op charges exactly the wrapped model's numbers.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, ModelDriveChargesExactModelTimes) {
  ModelDrive drive(model_);
  EXPECT_EQ(drive.Position(), 0);
  EXPECT_EQ(&drive.model(), &model_);
  EXPECT_EQ(drive.geometry().total_segments(),
            model_.geometry().total_segments());

  OpResult locate = drive.Locate(5000);
  EXPECT_TRUE(locate.ok());
  EXPECT_EQ(locate.times.locate_seconds, model_.LocateSeconds(0, 5000));
  EXPECT_EQ(locate.times.read_seconds, 0.0);
  EXPECT_EQ(locate.times.recovery_seconds, 0.0);
  EXPECT_EQ(locate.position, 5000);
  EXPECT_EQ(drive.Position(), 5000);

  OpResult read = drive.ReadSegments(5000, 5004);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read.times.read_seconds, model_.ReadSeconds(5000, 5004));
  EXPECT_EQ(read.segments_read, 5);
  EXPECT_EQ(read.position, 5005);
  EXPECT_EQ(drive.Position(), 5005);

  OpResult rewind = drive.Rewind();
  EXPECT_TRUE(rewind.ok());
  EXPECT_EQ(rewind.times.rewind_seconds, model_.RewindSeconds(5005));
  EXPECT_EQ(rewind.position, 0);
  EXPECT_EQ(drive.Position(), 0);
}

TEST_F(DriveTest, ModelDriveClampsReadOutPositionToLastSegment) {
  SegmentId last = model_.geometry().total_segments() - 1;
  ModelDrive drive(model_, last - 2);
  OpResult read = drive.ReadSegments(last - 2, last);
  // sched::OutPosition's rule: just past the span, clamped to the tape.
  EXPECT_EQ(read.position, last);
  EXPECT_EQ(drive.Position(), last);
}

TEST_F(DriveTest, ModelDriveSetPositionTeleportsAtZeroCost) {
  ModelDrive drive(model_, 123);
  EXPECT_EQ(drive.Position(), 123);
  drive.SetPosition(9999);
  EXPECT_EQ(drive.Position(), 9999);
  // The next op charges from the teleported position.
  EXPECT_EQ(drive.Locate(0).times.locate_seconds,
            model_.LocateSeconds(9999, 0));
}

TEST_F(DriveTest, DefaultScanMatchesReadAndDeliveryIsFree) {
  ModelDrive drive(model_, 0);
  OpResult scan = drive.ScanSegments(0, 999);
  EXPECT_EQ(scan.times.read_seconds, model_.ReadSeconds(0, 999));
  EXPECT_EQ(scan.segments_read, 1000);

  SegmentId head = drive.Position();
  OpResult deliver = drive.DeliverSpan(100, 101);
  EXPECT_TRUE(deliver.ok());
  EXPECT_EQ(deliver.times.total(), 0.0);
  EXPECT_EQ(deliver.position, head);
  EXPECT_EQ(drive.Position(), head);
}

// ---------------------------------------------------------------------------
// Golden equivalence: the Drive path reproduces the model-shim path bit
// for bit, for both regular schedules and the READ full-tape scan.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, ExecuteScheduleDrivePathMatchesModelShimBitForBit) {
  std::vector<Request> requests = UniformBatch(64, 7);
  sched::EstimateOptions with_rewind;
  with_rewind.rewind_at_end = true;
  for (Algorithm a : {Algorithm::kFifo, Algorithm::kSort, Algorithm::kSltf,
                      Algorithm::kLoss, Algorithm::kRead}) {
    auto schedule = BuildSchedule(model_, 0, requests, a);
    ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();

    sim::ExecutionResult via_model = sim::ExecuteSchedule(model_, *schedule);
    ModelDrive drive(model_);
    sim::ExecutionResult via_drive = sim::ExecuteSchedule(drive, *schedule);

    EXPECT_EQ(via_drive.total_seconds, via_model.total_seconds);
    EXPECT_EQ(via_drive.locate_seconds, via_model.locate_seconds);
    EXPECT_EQ(via_drive.read_seconds, via_model.read_seconds);
    EXPECT_EQ(via_drive.rewind_seconds, via_model.rewind_seconds);
    EXPECT_EQ(via_drive.locates, via_model.locates);
    EXPECT_EQ(via_drive.segments_read, via_model.segments_read);
    EXPECT_EQ(via_drive.final_position, via_model.final_position);

    ModelDrive rewind_drive(model_);
    sim::ExecutionResult a_r =
        sim::ExecuteSchedule(rewind_drive, *schedule, with_rewind);
    sim::ExecutionResult b_r =
        sim::ExecuteSchedule(model_, *schedule, with_rewind);
    EXPECT_EQ(a_r.total_seconds, b_r.total_seconds);
    EXPECT_EQ(a_r.rewind_seconds, b_r.rewind_seconds);
    EXPECT_EQ(a_r.final_position, b_r.final_position);
  }
}

TEST_F(DriveTest, DriveExecutionMatchesManualModelArithmetic) {
  std::vector<Request> requests = UniformBatch(32, 11);
  auto schedule = BuildSchedule(model_, 0, requests, Algorithm::kSort);
  ASSERT_TRUE(schedule.ok());

  // Hand-accumulate in execution order, phase by phase, exactly as the
  // executor does; the drive path must not change a single rounding.
  const tape::TapeGeometry& g = model_.geometry();
  double locate = 0.0;
  double read = 0.0;
  SegmentId pos = 0;
  for (const Request& r : schedule->order) {
    locate += model_.LocateSeconds(pos, r.segment);
    read += model_.ReadSeconds(r.segment, r.last());
    pos = sched::OutPosition(g, r);
  }

  ModelDrive drive(model_);
  sim::ExecutionResult res = sim::ExecuteSchedule(drive, *schedule);
  EXPECT_EQ(res.locate_seconds, locate);
  EXPECT_EQ(res.read_seconds, read);
  EXPECT_EQ(res.final_position, pos);
}

// ---------------------------------------------------------------------------
// MeteredDrive: counters and phase seconds agree with the executor.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, MeteredDriveMatchesExecutionResultBitForBit) {
  std::vector<Request> requests = UniformBatch(48, 3);
  auto schedule = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  ModelDrive base(model_);
  MeteredDrive metered(&base);
  sched::EstimateOptions options;
  options.rewind_at_end = true;
  sim::ExecutionResult res = sim::ExecuteSchedule(metered, *schedule, options);

  const DriveMetrics& m = metered.metrics();
  // Phase seconds accumulate in op order, so they equal the executor's
  // phase totals exactly — not approximately.
  EXPECT_EQ(m.locate_seconds, res.locate_seconds);
  EXPECT_EQ(m.read_seconds, res.read_seconds);
  EXPECT_EQ(m.rewind_seconds, res.rewind_seconds);
  EXPECT_EQ(m.busy_seconds(), res.total_seconds);
  EXPECT_EQ(m.recovery_seconds, 0.0);

  EXPECT_EQ(m.locates, res.locates);
  EXPECT_EQ(m.reads, static_cast<int64_t>(schedule->order.size()));
  EXPECT_EQ(m.rewinds, 1);
  EXPECT_EQ(m.segments_read, res.segments_read);
  EXPECT_EQ(m.faults(), 0);
  EXPECT_EQ(m.ops(), m.locates + m.reads + m.rewinds);

  // Histograms observed one entry per op, and their totals are the same
  // sums the phase buckets accumulated (every other phase is zero on an
  // ideal drive, so op total == phase time).
  EXPECT_EQ(m.locate_latency.count(), m.locates);
  EXPECT_EQ(m.read_latency.count(), m.reads + m.scans);
  EXPECT_EQ(m.locate_latency.total_seconds(), m.locate_seconds);
  EXPECT_EQ(m.read_latency.total_seconds(), m.read_seconds);
  int64_t bucketed = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    bucketed += m.locate_latency.bucket(b);
  }
  EXPECT_EQ(bucketed, m.locate_latency.count());

  metered.ResetMetrics();
  EXPECT_EQ(metered.metrics().ops(), 0);
  EXPECT_EQ(metered.metrics().locate_latency.count(), 0);
}

TEST_F(DriveTest, MeteredDriveMetersScanAndDelivery) {
  ModelDrive base(model_);
  MeteredDrive metered(&base);
  metered.Locate(0);
  metered.ScanSegments(0, 499);
  metered.DeliverSpan(10, 10);
  metered.Rewind();
  const DriveMetrics& m = metered.metrics();
  EXPECT_EQ(m.scans, 1);
  EXPECT_EQ(m.deliveries, 1);
  EXPECT_EQ(m.segments_read, 500);
  EXPECT_EQ(m.read_seconds, model_.ReadSeconds(0, 499));
  EXPECT_EQ(m.ops(), 4);
}

TEST_F(DriveTest, DriveMetricsToJsonCarriesCountersAndLabel) {
  ModelDrive base(model_);
  MeteredDrive metered(&base);
  metered.Locate(1000);
  metered.ReadSegments(1000, 1000);
  std::string json = metered.metrics().ToJson("loss");
  EXPECT_NE(json.find("\"label\":\"loss\""), std::string::npos);
  EXPECT_NE(json.find("\"locates\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reads\":1"), std::string::npos);
  EXPECT_NE(json.find("\"segments_read\":1"), std::string::npos);
  EXPECT_NE(json.find("\"locate_latency\":["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------------
// FaultDrive: per-op semantics.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, FaultDriveWithNullInjectorIsTransparent) {
  ModelDrive plain(model_);
  ModelDrive base(model_);
  FaultDrive faulty(&base, nullptr);

  OpResult a = faulty.Locate(4321);
  OpResult b = plain.Locate(4321);
  EXPECT_EQ(a.times.locate_seconds, b.times.locate_seconds);
  a = faulty.ReadSegments(4321, 4330);
  b = plain.ReadSegments(4321, 4330);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.times.read_seconds, b.times.read_seconds);
  EXPECT_EQ(a.position, b.position);
  a = faulty.DeliverSpan(4321, 4330);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.times.total(), 0.0);
}

TEST_F(DriveTest, FaultDriveTransientReadChargesWastedPassAndHoldsHead) {
  FaultProfile profile;
  profile.transient_read_rate = 1.0;
  FaultInjector injector(profile);
  ModelDrive base(model_, 2000);
  FaultDrive faulty(&base, &injector);

  OpResult r = faulty.ReadSegments(2000, 2009);
  EXPECT_EQ(r.status, OpStatus::kTransientReadError);
  EXPECT_EQ(r.times.read_seconds, 0.0);
  EXPECT_EQ(r.times.recovery_seconds,
            profile.reread_overhead_seconds +
                model_.ReadSeconds(2000, 2009));
  EXPECT_EQ(r.segments_read, 0);
  // The failed pass repositions internally: the head is back at the span.
  EXPECT_EQ(faulty.Position(), 2000);
}

TEST_F(DriveTest, FaultDriveResetRewindsToBotAndChargesRecovery) {
  FaultProfile profile;
  profile.drive_reset_rate = 1.0;
  FaultInjector injector(profile);
  ModelDrive base(model_, 7000);
  FaultDrive faulty(&base, &injector);

  OpResult r = faulty.Locate(100);
  EXPECT_EQ(r.status, OpStatus::kDriveReset);
  EXPECT_EQ(r.times.locate_seconds, 0.0);
  EXPECT_EQ(r.times.recovery_seconds,
            profile.reset_seconds + model_.RewindSeconds(7000));
  EXPECT_EQ(r.position, 0);
  EXPECT_EQ(faulty.Position(), 0);
}

TEST_F(DriveTest, FaultDriveOvershootSettlesOffTargetWithSettleCharge) {
  FaultProfile profile;
  profile.locate_overshoot_rate = 1.0;
  FaultInjector injector(profile);
  ModelDrive base(model_, 0);
  FaultDrive faulty(&base, &injector);

  OpResult r = faulty.Locate(6000);
  EXPECT_EQ(r.status, OpStatus::kLocateOvershoot);
  EXPECT_EQ(r.times.recovery_seconds,
            model_.LocateSeconds(0, 6000) + profile.overshoot_settle_seconds);
  EXPECT_NE(r.position, 6000);
  EXPECT_EQ(r.position, faulty.Position());
  EXPECT_GE(r.position, 0);
  EXPECT_LT(r.position, model_.geometry().total_segments());
}

TEST_F(DriveTest, FaultDrivePermanentErrorIsSticky) {
  FaultProfile profile;
  profile.permanent_error_rate = 1.0;
  FaultInjector injector(profile);
  ModelDrive base(model_, 3000);
  FaultDrive faulty(&base, &injector);

  OpResult r = faulty.ReadSegments(3000, 3000);
  EXPECT_EQ(r.status, OpStatus::kPermanentMediaError);
  EXPECT_FALSE(IsRetryable(r.status));
  EXPECT_EQ(r.times.recovery_seconds, profile.reread_overhead_seconds);
  EXPECT_TRUE(injector.IsBadSegment(3000));
  // Sticky: the same span fails again.
  EXPECT_EQ(faulty.ReadSegments(3000, 3000).status,
            OpStatus::kPermanentMediaError);
}

TEST_F(DriveTest, FaultDriveDeliverSpanAbsorbsOneTransientReread) {
  FaultProfile profile;
  profile.transient_read_rate = 1.0;  // every draw is a transient error
  FaultInjector injector(profile);
  ModelDrive base(model_, 0);
  FaultDrive faulty(&base, &injector);

  // First draw: transient -> one on-the-fly re-read is absorbed. The
  // redraw is transient again, which the stream's ECC retry eats for free,
  // so the delivery itself succeeds.
  OpResult r = faulty.DeliverSpan(500, 509);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.transient_read_errors, 1);
  EXPECT_EQ(r.times.recovery_seconds,
            profile.reread_overhead_seconds + model_.ReadSeconds(500, 509));
}

TEST_F(DriveTest, FaultDriveScanNeverFaults) {
  FaultInjector injector(FaultProfile::Heavy().Scaled(1000.0));
  ModelDrive base(model_, 0);
  FaultDrive faulty(&base, &injector);
  OpResult r = faulty.ScanSegments(0, 999);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.times.read_seconds, model_.ReadSeconds(0, 999));
}

// ---------------------------------------------------------------------------
// Decorator stacking order.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, StackingOrderDecidesWhatTheMeterSees) {
  std::vector<Request> requests = UniformBatch(60, 17);
  auto schedule = BuildSchedule(model_, 0, requests, Algorithm::kSltf);
  ASSERT_TRUE(schedule.ok());
  FaultProfile profile = FaultProfile::Heavy().Scaled(4.0);

  // Metered(Fault(Model)): the meter sees what execution experienced.
  FaultInjector outer_injector(profile);
  ModelDrive outer_base(model_);
  FaultDrive outer_fault(&outer_base, &outer_injector);
  MeteredDrive outer_meter(&outer_fault);
  sim::RecoveringExecutor outer_exec(outer_meter, model_);
  sim::RecoveringExecutionResult outer_res = outer_exec.Execute(*schedule);

  // Fault(Metered(Model)): the meter sees only the useful work the fault
  // layer let through.
  FaultInjector inner_injector(profile);
  ModelDrive inner_base(model_);
  MeteredDrive inner_meter(&inner_base);
  FaultDrive inner_fault(&inner_meter, &inner_injector);
  sim::RecoveringExecutor inner_exec(inner_fault, model_);
  sim::RecoveringExecutionResult inner_res = inner_exec.Execute(*schedule);

  // Same seed, same op sequence: execution results are bit-identical no
  // matter where the transparent meter sits.
  EXPECT_EQ(outer_res.total_seconds, inner_res.total_seconds);
  EXPECT_EQ(outer_res.recovery_seconds, inner_res.recovery_seconds);
  EXPECT_EQ(outer_res.transient_read_errors, inner_res.transient_read_errors);
  EXPECT_EQ(outer_res.drive_resets, inner_res.drive_resets);
  EXPECT_EQ(outer_res.final_position, inner_res.final_position);

  const DriveMetrics& outer_m = outer_meter.metrics();
  const DriveMetrics& inner_m = inner_meter.metrics();
  ASSERT_GT(outer_res.transient_read_errors + outer_res.locate_overshoots +
                outer_res.drive_resets + outer_res.permanent_errors,
            0)
      << "profile injected nothing; the stacking comparison is vacuous";

  // The outer meter counts the faults the executor saw; the inner meter
  // never sees a non-kOk result (FaultDrive synthesizes faulted results
  // without forwarding them inward).
  EXPECT_EQ(outer_m.transient_read_errors, outer_res.transient_read_errors);
  EXPECT_EQ(outer_m.locate_overshoots, outer_res.locate_overshoots);
  EXPECT_EQ(outer_m.drive_resets, outer_res.drive_resets);
  EXPECT_EQ(outer_m.permanent_errors, outer_res.permanent_errors);
  EXPECT_GT(outer_m.recovery_seconds, 0.0);
  EXPECT_EQ(inner_m.faults(), 0);
  EXPECT_EQ(inner_m.recovery_seconds, 0.0);

  // Useful work is identical either way: both meters accumulated the same
  // successful ops in the same order.
  EXPECT_EQ(outer_m.locate_seconds, inner_m.locate_seconds);
  EXPECT_EQ(outer_m.read_seconds, inner_m.read_seconds);
  EXPECT_EQ(outer_m.segments_read, inner_m.segments_read);
  EXPECT_EQ(outer_m.locate_seconds, outer_res.locate_seconds);
  EXPECT_EQ(outer_m.read_seconds, outer_res.read_seconds);
  // The outer meter logs every attempt (faulted ops included); the inner
  // one logs only the attempts that reached the model.
  EXPECT_GT(outer_m.ops(), inner_m.ops());
}

// ---------------------------------------------------------------------------
// Fault replay: the explicit drive stack is pinned to %.17g goldens,
// recorded when the executor could still build this stack itself.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, ExplicitFaultStackReplaysModelShimByteForByte) {
  struct Golden {
    Algorithm algorithm;
    double total, locate, read, rewind, recovery;
    int64_t locates, segments_read;
    SegmentId final_position;
    int64_t transient, overshoots, resets, permanent, retries, reschedules;
    int64_t serviced;
    std::vector<SegmentId> abandoned;
  };
  const Golden goldens[] = {
      {Algorithm::kSltf, 4121.2663502532268, 2964.8837610371047,
       1.7423639069965284, 0.0, 1154.6402253091255, 80, 78, 406054, 16, 23,
       1, 2, 39, 3, 78, {62584, 532540}},
      {Algorithm::kLoss, 4105.3624587025479, 2814.4424011610508,
       43.616234027665399, 0.0, 1247.303823513831, 79, 1721, 149902, 15, 24,
       1, 2, 39, 3, 78, {329309, 269043}},
      {Algorithm::kRead, 14326.198371640439, 0.0, 14281.75, 2.0137174326556,
       42.434654207783673, 0, 622541, 0, 20, 0, 0, 1, 20, 0, 79, {441226}},
  };
  std::vector<Request> requests = UniformBatch(80, 23);
  for (const Golden& g : goldens) {
    auto schedule = BuildSchedule(model_, 0, requests, g.algorithm);
    ASSERT_TRUE(schedule.ok());
    FaultInjector injector(FaultProfile::Heavy().Scaled(3.0));
    ModelDrive base(model_);
    FaultDrive faulty(&base, &injector);
    sim::RecoveringExecutionResult actual =
        sim::RecoveringExecutor(faulty, model_).Execute(*schedule);

    EXPECT_EQ(actual.total_seconds, g.total);
    EXPECT_EQ(actual.locate_seconds, g.locate);
    EXPECT_EQ(actual.read_seconds, g.read);
    EXPECT_EQ(actual.rewind_seconds, g.rewind);
    EXPECT_EQ(actual.recovery_seconds, g.recovery);
    EXPECT_EQ(actual.locates, g.locates);
    EXPECT_EQ(actual.segments_read, g.segments_read);
    EXPECT_EQ(actual.final_position, g.final_position);
    EXPECT_EQ(actual.transient_read_errors, g.transient);
    EXPECT_EQ(actual.locate_overshoots, g.overshoots);
    EXPECT_EQ(actual.drive_resets, g.resets);
    EXPECT_EQ(actual.permanent_errors, g.permanent);
    EXPECT_EQ(actual.retries, g.retries);
    EXPECT_EQ(actual.reschedules, g.reschedules);
    EXPECT_EQ(actual.requests_serviced, g.serviced);
    EXPECT_EQ(actual.abandoned_segments, g.abandoned);
  }
}

// ---------------------------------------------------------------------------
// PhysicalDriveAdapter: the measured path through the Drive interface.
// ---------------------------------------------------------------------------

TEST_F(DriveTest, PhysicalDriveAdapterMatchesRawPhysicalDrive) {
  std::vector<Request> requests = UniformBatch(40, 29);
  auto schedule = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  sim::PhysicalDrive raw(truth, Dlt4000Timings());
  sim::ExecutionResult expected = sim::ExecuteSchedule(raw, *schedule);

  sim::PhysicalDriveAdapter adapter(truth, Dlt4000Timings());
  sim::ExecutionResult actual = sim::ExecuteSchedule(adapter, *schedule);

  // Identical noise seed, identical op order: the measured execution is
  // bit-identical through either entry point.
  EXPECT_EQ(actual.total_seconds, expected.total_seconds);
  EXPECT_EQ(actual.locate_seconds, expected.locate_seconds);
  EXPECT_EQ(actual.read_seconds, expected.read_seconds);
  EXPECT_EQ(actual.final_position, expected.final_position);

  // The adapter exposes its measurement source for reseeding.
  adapter.physical().ResetNoise(1234);
  adapter.SetPosition(0);
  sim::ExecutionResult reseeded = sim::ExecuteSchedule(adapter, *schedule);
  EXPECT_NE(reseeded.total_seconds, actual.total_seconds);
}

}  // namespace
}  // namespace serpentine::drive
