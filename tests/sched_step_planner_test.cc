#include "serpentine/sched/step_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/pipeline.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

class StepPlannerTest : public ::testing::Test {
 protected:
  StepPlannerTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  const tape::TapeGeometry& g() const { return model_.geometry(); }

  /// Random requests plus every shape the planner special-cases:
  /// duplicates, overlapping multi-segment requests, and short gaps across
  /// track boundaries; shuffled unless `sorted`.
  std::vector<Request> MixedOrder(int n, int32_t seed, bool sorted) const {
    Lrand48 rng(seed);
    std::vector<Request> out = sim::GenerateUniformRequests(
        rng, n, g().total_segments() - 200);
    for (int i = 0; i < n / 8; ++i) {
      Request repeat = out[rng.NextBounded(n)];
      out.push_back(repeat);
    }
    for (int i = 0; i < n / 8; ++i) {
      tape::SegmentId base = out[rng.NextBounded(n)].segment;
      out.push_back(Request{base, 40});
      out.push_back(Request{base + 20, 60});
    }
    for (int t = 1; t < g().num_tracks(); t += 7) {
      out.push_back(Request{g().track_start(t) - 3, 1});
      out.push_back(Request{g().track_start(t) + 2, 1});
    }
    if (sorted) {
      std::sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
        return a.segment < b.segment;
      });
    } else {
      for (size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[rng.NextBounded(static_cast<int64_t>(i))]);
      }
    }
    return out;
  }

  Schedule Make(std::vector<Request> order, tape::SegmentId initial) const {
    Schedule s;
    s.initial_position = initial;
    s.order = std::move(order);
    return s;
  }

  tape::Dlt4000LocateModel model_;
};

/// Pass-through drive that records every span delivered to the client:
/// service reads and scan deliveries alike.
class DeliveryLog : public drive::Drive {
 public:
  explicit DeliveryLog(drive::Drive* inner) : inner_(inner) {}

  drive::OpResult Locate(tape::SegmentId dst) override {
    return inner_->Locate(dst);
  }
  drive::OpResult ReadSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    delivered_.push_back(Request{from, to - from + 1});
    return inner_->ReadSegments(from, to);
  }
  drive::OpResult ScanSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    return inner_->ScanSegments(from, to);
  }
  drive::OpResult DeliverSpan(tape::SegmentId from,
                              tape::SegmentId to) override {
    delivered_.push_back(Request{from, to - from + 1});
    return inner_->DeliverSpan(from, to);
  }
  drive::OpResult Rewind() override { return inner_->Rewind(); }
  tape::SegmentId Position() const override { return inner_->Position(); }
  void SetPosition(tape::SegmentId position) override {
    inner_->SetPosition(position);
  }
  const tape::LocateModel& model() const override { return inner_->model(); }

  std::vector<Request> delivered() const { return delivered_; }

 private:
  drive::Drive* inner_;
  std::vector<Request> delivered_;
};

std::vector<std::pair<tape::SegmentId, int64_t>> Multiset(
    const std::vector<Request>& requests) {
  std::vector<std::pair<tape::SegmentId, int64_t>> out;
  for (const Request& r : requests) out.emplace_back(r.segment, r.count);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// The step rule.
// ---------------------------------------------------------------------------

TEST_F(StepPlannerTest, DuplicateIsDeliveredFromThePass) {
  StepPlanner planner(model_, 0);
  Step first = planner.Next(Request{5000, 1});
  EXPECT_EQ(first.kind, StepKind::kLocate);
  EXPECT_EQ(planner.head(), 5001);
  Step again = planner.Next(Request{5000, 1});
  EXPECT_EQ(again.kind, StepKind::kFromPass);
  EXPECT_FALSE(again.scans(Request{5000, 1}));
  EXPECT_EQ(again.locate_seconds + again.read_seconds, 0.0);
  EXPECT_EQ(planner.head(), 5001);
}

TEST_F(StepPlannerTest, OverlapScansOnlyPastWhatWasRead) {
  StepPlanner planner(model_, 0);
  planner.Next(Request{5000, 10});
  const Request overlap{5005, 10};
  Step step = planner.Next(overlap);
  EXPECT_EQ(step.kind, StepKind::kFromPass);
  ASSERT_TRUE(step.scans(overlap));
  EXPECT_EQ(step.scan_from, 5010);
  EXPECT_EQ(step.read_seconds, model_.ReadSeconds(5010, 5014));
  EXPECT_EQ(planner.head(), 5015);
}

TEST_F(StepPlannerTest, StreamsThroughATrackBoundary) {
  const tape::SegmentId boundary = g().track_start(1);
  StepPlanner planner(model_, 0);
  planner.Next(Request{boundary - 3, 1});
  const Request next{boundary + 2, 1};
  double locate = model_.LocateSeconds(boundary - 2, next.segment) +
                  model_.ReadSeconds(next.segment, next.last());
  Step step = planner.Next(next);
  EXPECT_EQ(step.kind, StepKind::kStream);
  EXPECT_EQ(step.scan_from, boundary - 2);
  EXPECT_EQ(step.read_seconds, model_.ReadSeconds(boundary - 2, boundary + 2));
  // Reading through skips the locate's scan overhead.
  EXPECT_LT(step.read_seconds, locate - 1.0);
}

TEST_F(StepPlannerTest, ReadForwardLocatesKeepTheirOpSequence) {
  // A short forward gap in one section prices the same either way; the
  // tie keeps the locate.
  StepPlanner planner(model_, 0);
  planner.Next(Request{1000, 1});
  Step step = planner.Next(Request{1100, 1});
  EXPECT_EQ(step.kind, StepKind::kLocate);
  EXPECT_EQ(step.locate_seconds, model_.LocateSeconds(1001, 1100));
}

TEST_F(StepPlannerTest, RestartEndsThePass) {
  StepPlanner planner(model_, 0);
  planner.Next(Request{5000, 10});
  planner.Restart(0);
  EXPECT_EQ(planner.head(), 0);
  EXPECT_EQ(planner.Next(Request{5003, 1}).kind, StepKind::kLocate);
}

// ---------------------------------------------------------------------------
// One rule everywhere.
// ---------------------------------------------------------------------------

TEST_F(StepPlannerTest, EstimatorAndBothExecutorsAgreeBitForBit) {
  // ExecuteSchedule and a RecoveringExecutor on a bare ModelDrive charge
  // the estimate bit for bit. The %.17g goldens were recorded when
  // ExecuteSchedule still walked schedules with its own loop.
  struct Golden {
    double estimate;
    double locate;
    int64_t locates;
    int64_t segments_read;
    tape::SegmentId final_position;
  };
  const Golden goldens[] = {
      {47485.654472626855, 47358.696097564905, 566, 5466, 9698},
      {47627.602420017698, 47358.696097564905, 566, 5466, 0},
      {46697.84195903744, 46562.887667473842, 568, 5468, 605286},
      {46732.397317782576, 46562.887667473842, 568, 5468, 0},
      {48795.915445255632, 48673.827458710708, 567, 5467, 539563},
      {48868.013756361288, 48673.827458710708, 567, 5467, 0},
      {11846.365113312939, 11091.260027320226, 384, 25778, 621288},
      {11865.719269871803, 11091.260027320226, 384, 25778, 0},
      {11807.344888027663, 11254.965946544966, 393, 18483, 621601},
      {11822.316768368417, 11254.965946544966, 393, 18483, 0},
      {12279.756058351802, 11584.491861146584, 390, 24122, 622163},
      {12286.954965328276, 11584.491861146584, 390, 24122, 0},
  };
  const Golden* golden = goldens;
  for (bool sorted : {false, true}) {
    for (int32_t seed : {1, 2, 3}) {
      for (bool rewind : {false, true}) {
        const Golden& g = *golden++;
        Schedule s = Make(MixedOrder(400, seed, sorted), 12345 * seed);
        EstimateOptions options;
        options.rewind_at_end = rewind;
        tape::SegmentId predicted = -1;
        double estimate =
            EstimateScheduleSeconds(model_, s, options, &predicted);
        EXPECT_EQ(estimate, g.estimate);
        EXPECT_EQ(predicted, g.final_position);
        sim::ExecutionResult plain = sim::ExecuteSchedule(model_, s, options);
        EXPECT_EQ(plain.total_seconds, estimate);
        EXPECT_EQ(plain.locate_seconds, g.locate);
        EXPECT_EQ(plain.locates, g.locates);
        EXPECT_EQ(plain.segments_read, g.segments_read);
        EXPECT_EQ(plain.final_position, predicted);

        sim::RecoveryOptions recovery;
        recovery.estimate = options;
        drive::ModelDrive drive(model_);
        sim::RecoveringExecutionResult recovered =
            sim::RecoveringExecutor(drive, model_, recovery).Execute(s);
        EXPECT_EQ(recovered.total_seconds, estimate);
        EXPECT_EQ(recovered.final_position, predicted);
        EXPECT_EQ(recovered.requests_serviced,
                  static_cast<int64_t>(s.order.size()));
        if (sorted) {
          // Fewer locates than requests: the rule streamed and delivered
          // from passes.
          EXPECT_LT(plain.locates, static_cast<int64_t>(s.order.size()));
        }
      }
    }
  }
}

TEST_F(StepPlannerTest, LoggingDriveDeliversEachRequestExactlyOnce) {
  Schedule s = Make(MixedOrder(300, 9, /*sorted=*/true), 777);
  {
    drive::ModelDrive base(model_);
    DeliveryLog log(&base);
    sim::ExecuteSchedule(log, s);
    EXPECT_EQ(Multiset(log.delivered()), Multiset(s.order));
  }
  {
    drive::ModelDrive base(model_);
    DeliveryLog log(&base);
    sim::RecoveringExecutor executor(log, model_);
    executor.Execute(s);
    EXPECT_EQ(Multiset(log.delivered()), Multiset(s.order));
  }
}

TEST_F(StepPlannerTest, ReadDeliversEveryRequestThroughBothExecutors) {
  auto read = BuildSchedule(model_, 0, MixedOrder(50, 4, false),
                            Algorithm::kRead);
  ASSERT_TRUE(read.ok());
  {
    drive::ModelDrive base(model_);
    drive::MeteredDrive metered(&base);
    sim::ExecuteSchedule(metered, *read);
    EXPECT_EQ(metered.metrics().deliveries,
              static_cast<int64_t>(read->order.size()));
  }
  {
    drive::ModelDrive base(model_);
    drive::MeteredDrive metered(&base);
    sim::RecoveringExecutor executor(metered, model_);
    executor.Execute(*read);
    EXPECT_EQ(metered.metrics().deliveries,
              static_cast<int64_t>(read->order.size()));
  }
}

TEST_F(StepPlannerTest, FullScanStampsCompletionAtTheRequestsLastSegment) {
  // Out of pass order on purpose: deliveries are reported as the head
  // passes them, each step the pass time since the previous delivery.
  Schedule read = Make({Request{90000, 1}, Request{1000, 50}}, 0);
  read.full_tape_scan = true;
  drive::ModelDrive drive(model_);
  std::vector<tape::SegmentId> delivered;
  std::vector<double> steps;
  sim::RecoveringExecutionResult r = sim::RecoveringExecutor(drive, model_)
      .Execute(read, [&](const Request& req, double step, bool ok) {
        EXPECT_TRUE(ok);
        delivered.push_back(req.segment);
        steps.push_back(step);
      });
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(delivered, (std::vector<tape::SegmentId>{1000, 90000}));
  const double first = model_.ReadSeconds(0, 1049);
  const double second = model_.ReadSeconds(0, 90000);
  EXPECT_EQ(steps[0], first);
  EXPECT_EQ(steps[1], second - first);
  EXPECT_EQ(r.tail_seconds, r.total_seconds - second);
}

TEST_F(StepPlannerTest, PipelinePredictsTheExecutedHead) {
  // Each batch ends on a delivery from the pass, which leaves the head
  // past the long request before it rather than past the last request.
  const tape::SegmentId tail = g().total_segments() - 100;
  std::vector<std::vector<Request>> batches;
  for (int32_t seed : {5, 6, 7, 8}) {
    std::vector<Request> batch = MixedOrder(200, seed, /*sorted=*/true);
    batch.push_back(Request{tail, 40});
    batch.push_back(Request{tail + 5, 1});
    batches.push_back(std::move(batch));
  }
  sim::BatchScheduleBuilder builder =
      [&](int, tape::SegmentId initial,
          std::vector<Request> requests) -> StatusOr<Schedule> {
    return Make(std::move(requests), initial);
  };
  drive::ModelDrive drive(model_);
  sim::PipelineOptions options;
  options.overlap = true;
  auto result = sim::RunPipelinedBatches(drive, batches, builder, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->mispredicted, 0);
  EXPECT_EQ(result->prefetched, static_cast<int>(batches.size()) - 1);
}

// ---------------------------------------------------------------------------
// Bounds and metamorphic properties.
// ---------------------------------------------------------------------------

TEST_F(StepPlannerTest, RegistryBuildsStayWithinTheReadBound) {
  const Registry& registry = Registry::Default();
  for (int n : {1000, 2000, 10000}) {
    Lrand48 rng(31 + n);
    tape::SegmentId initial = rng.NextBounded(g().total_segments());
    std::vector<Request> batch =
        sim::GenerateUniformRequests(rng, n, g().total_segments());
    const double bound = ReadBoundSeconds(model_, initial);
    for (const char* name : {"fifo", "sort", "sltf", "scan", "weave",
                             "sparse-loss", "loss-mt", "loss-mt-oropt"}) {
      auto s = registry.Build(model_, initial, batch, name);
      ASSERT_TRUE(s.ok()) << name;
      ASSERT_TRUE(IsPermutationOfRequests(*s, batch)) << name;
      EXPECT_LE(EstimateScheduleSeconds(model_, *s), bound)
          << name << " at n=" << n;
    }
  }
}

TEST_F(StepPlannerTest, RepeatingARequestNeverRaisesTheEstimate) {
  Lrand48 rng(99);
  for (int32_t seed : {11, 12, 13, 14}) {
    for (bool sorted : {false, true}) {
      Schedule s = Make(MixedOrder(120, seed, sorted), 4242);
      double before = EstimateScheduleSeconds(model_, s);
      for (int k = 0; k < 20; ++k) {
        size_t at = rng.NextBounded(static_cast<int64_t>(s.order.size()));
        Schedule repeated = s;
        repeated.order.insert(repeated.order.begin() + at + 1, s.order[at]);
        EXPECT_LE(EstimateScheduleSeconds(model_, repeated), before);
      }
    }
  }
}

}  // namespace
}  // namespace serpentine::sched
