// batch-10k: closed loop of 10,000-request batches on tape A, far above
// the paper's 1536-request READ crossover. Each batch is built by the
// top rung of the default degradation ladder and executed serially on a
// fault-free model drive; the head carries from one batch to the next.
#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/obs/histogram.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/pipeline.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace serpentine;

constexpr int kBatchSize = 10000;
constexpr int kBatchesPerRound = 4;
constexpr char kScheduler[] = "loss-mt-oropt";

/// Pass-through drive that stamps every delivered span with the modeled
/// seconds elapsed so far. Used only by the after-the-fact correctness
/// replay, never inside a measured round.
class DeliveryLog : public drive::Drive {
 public:
  struct Delivery {
    tape::SegmentId from = 0;
    tape::SegmentId to = 0;
    double at_seconds = 0.0;
  };

  explicit DeliveryLog(drive::Drive* inner) : inner_(inner) {}

  drive::OpResult Locate(tape::SegmentId dst) override {
    return Charge(inner_->Locate(dst));
  }
  drive::OpResult ReadSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    return Deliver(from, to, Charge(inner_->ReadSegments(from, to)));
  }
  drive::OpResult ScanSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    return Charge(inner_->ScanSegments(from, to));
  }
  drive::OpResult DeliverSpan(tape::SegmentId from,
                              tape::SegmentId to) override {
    return Deliver(from, to, Charge(inner_->DeliverSpan(from, to)));
  }
  drive::OpResult Rewind() override { return Charge(inner_->Rewind()); }
  tape::SegmentId Position() const override { return inner_->Position(); }
  void SetPosition(tape::SegmentId position) override {
    inner_->SetPosition(position);
  }
  const tape::LocateModel& model() const override { return inner_->model(); }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  drive::OpResult Charge(drive::OpResult r) {
    clock_ += r.times.total();
    return r;
  }
  drive::OpResult Deliver(tape::SegmentId from, tape::SegmentId to,
                          drive::OpResult r) {
    deliveries_.push_back({from, to, clock_});
    return r;
  }

  drive::Drive* inner_;
  double clock_ = 0.0;
  std::vector<Delivery> deliveries_;
};

bool CloseTo(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

std::vector<sched::Request> Sorted(std::vector<sched::Request> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const sched::Request& a, const sched::Request& b) {
              return a.segment != b.segment ? a.segment < b.segment
                                            : a.count < b.count;
            });
  return requests;
}

}  // namespace

void RunBatch10k(const Args& args, Spans& spans, Report& report) {
  std::optional<tape::Dlt4000LocateModel> model;
  std::vector<std::vector<sched::Request>> batches;
  std::vector<double> generate_seconds;
  report.Set("setup_s", MedianSetupSeconds([&] {
               model.emplace(
                   tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
                   tape::Dlt4000Timings());
               double start = CpuNow();
               workload::UniformGenerator generator(
                   model->geometry().total_segments(), args.seed);
               batches.clear();
               for (int k = 0; k < kBatchesPerRound; ++k) {
                 batches.push_back(generator.Batch(kBatchSize));
               }
               generate_seconds.push_back(CpuNow() - start);
             }));
  report.Set("workload.generate_s", Median(generate_seconds));

  const sched::Registry& registry = sched::Registry::Default();
  std::vector<sched::Schedule> schedules(kBatchesPerRound);
  std::vector<double> exec_seconds;  // per batch, first round
  // Untraced rounds: call k < kBatchesPerRound is batch k's build, call
  // kBatchesPerRound the rest of the round (execution and pipeline).
  BestTimes best;
  drive::DriveMetrics traced_drive;
  sim::ExecutionResult totals;
  int builder_calls = 0;
  int traced_rounds = 0;

  RunRounds(args, spans, 3, report, [&](int index, bool traced) {
    drive::ModelDrive base(*model);
    drive::MeteredDrive metered(&base);
    drive::Drive& d = traced ? static_cast<drive::Drive&>(metered) : base;
    const bool first = index == 0;
    double round_build_seconds = 0.0;
    auto builder = [&](int k, tape::SegmentId initial,
                       std::vector<sched::Request> requests)
        -> StatusOr<sched::Schedule> {
      std::optional<StatusOr<sched::Schedule>> built;
      double seconds = spans.Time("sched.build", [&] {
        built.emplace(
            registry.Build(*model, initial, std::move(requests), kScheduler));
      });
      if (traced) {
        ++builder_calls;
      } else {
        best.Add(k, seconds);
        round_build_seconds += seconds;
      }
      if (first && built->ok()) schedules[k] = **built;
      return std::move(*built);
    };
    sim::PipelineOptions options;
    options.overlap = false;
    std::optional<StatusOr<sim::PipelineResult>> result;
    double seconds = spans.Time("sim.run", [&] {
      result.emplace(sim::RunPipelinedBatches(d, batches, builder, options));
    });
    report.attempted += kBatchSize * kBatchesPerRound;
    if (!result->ok()) {
      report.failed += kBatchSize * kBatchesPerRound;
      report.Check(false, "RunPipelinedBatches: " +
                              result->status().ToString());
      return seconds;
    }
    const sim::PipelineResult& r = **result;
    for (int k = 0; k < kBatchesPerRound; ++k) {
      double exec = r.batches[k].execute_virtual_seconds;
      if (first) {
        exec_seconds.push_back(exec);
      } else {
        report.Check(exec == exec_seconds[k],
                     "modeled batch seconds differ between rounds");
      }
    }
    if (first) totals = r.totals;
    if (traced) {
      traced_drive = metered.metrics();
      ++traced_rounds;
    } else {
      best.Add(kBatchesPerRound, seconds - round_build_seconds);
    }
    return seconds;
  });
  if (!report.errors.empty()) return;

  // Correctness: replay each first-round schedule on a logging drive.
  const double read_bound = [&] {
    sched::Schedule read;
    read.full_tape_scan = true;
    return sched::EstimateScheduleSeconds(*model, read);
  }();
  std::vector<double> responses;
  double estimate_sum = 0.0;
  for (int k = 0; k < kBatchesPerRound; ++k) {
    const sched::Schedule& s = schedules[k];
    report.Check(sched::IsPermutationOfRequests(s, batches[k]),
                 "schedule does not serve its batch exactly once");
    double estimate = sched::EstimateScheduleSeconds(*model, s);
    estimate_sum += estimate;
    report.Check(CloseTo(estimate, exec_seconds[k]),
                 "executed seconds differ from EstimateScheduleSeconds");
    drive::ModelDrive base(*model);
    DeliveryLog log(&base);
    sim::ExecutionResult replay = sim::ExecuteSchedule(log, s);
    report.Check(replay.total_seconds == exec_seconds[k],
                 "replayed batch differs from the pipelined execution");
    std::vector<sched::Request> delivered;
    for (const DeliveryLog::Delivery& d : log.deliveries()) {
      delivered.push_back({d.from, d.to - d.from + 1});
      responses.push_back(d.at_seconds);
    }
    report.Check(Sorted(delivered) == Sorted(batches[k]),
                 "drive deliveries do not match the batch's requests");
  }
  if (!report.errors.empty()) return;

  const double requests = kBatchSize * kBatchesPerRound;
  obs::Histogram histogram;
  for (double r : responses) histogram.Add(r);

  report.SetModeled("makespan_s", Mean(exec_seconds));
  report.SetModeled("mean_response_s", Mean(responses));
  report.SetModeled("p99_response_s", OrderStatistic(responses, 0.99));
  report.SetModeled("answered_per_h",
                    requests / (totals.total_seconds / 3600.0));
  report.SetModeled("ok_share", responses.size() / requests);
  double build_seconds = 0.0;
  for (int k = 0; k < kBatchesPerRound; ++k) build_seconds += best.Best(k);
  report.Set("build_s", build_seconds / kBatchesPerRound);
  report.Set("sim_requests_per_s", requests / best.Total());

  report.Set("sched.build_s", Median(spans.durations("sched.build")));
  if (traced_rounds > 0) {
    report.Set("sched.build_calls",
               builder_calls / static_cast<double>(traced_rounds *
                                                   kBatchesPerRound));
    report.Set("drive.locates_per_request",
               traced_drive.locates / requests);
    report.Set("drive.scans",
               traced_drive.scans / static_cast<double>(kBatchesPerRound));
    report.Set("drive.deliveries", traced_drive.deliveries /
                                       static_cast<double>(kBatchesPerRound));
    report.Set("drive.locate_s",
               traced_drive.locate_seconds / kBatchesPerRound);
    report.Set("drive.read_s", traced_drive.read_seconds / kBatchesPerRound);
  }
  report.SetModeled("sched.estimate_s", estimate_sum / kBatchesPerRound);
  report.SetModeled("sched.read_bound_ratio",
                    estimate_sum / kBatchesPerRound / read_bound);
  report.Set("sim.run_s", Median(spans.durations("sim.run")));
  report.Set("sim.mean_batch_size", kBatchSize);
  report.SetModeled("sim.busy_s_per_request", totals.total_seconds / requests);
  report.SetModeled("sim.utilization", 1.0);  // closed loop: never idle
  report.SetModeled("obs.hist_p99_response_s", histogram.Quantile(0.99));
  report.SetModeled("obs.max_response_s", histogram.max_seconds());
}

}  // namespace perfbench
