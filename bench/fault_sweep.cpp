// Robustness extension: graceful degradation under drive/media faults.
// Sweeps the fault-profile intensity from a clean drive to well past the
// "heavy" profile and reports how batch execution time, queue response
// time, and recovery overhead grow. Two checks ride along: at intensity
// zero the recovering executor must charge the schedule estimate bit for
// bit, and every run must account for all requests (serviced + abandoned
// = batch size) — faults degrade service, they never lose requests.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

int main() {
  bench::PrintHeader("Fault sweep (robustness extension)",
                     "LOSS batches and a queued system under scaled fault "
                     "profiles; one DLT4000 drive");

  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  const tape::TapeGeometry& g = model.geometry();
  const std::vector<double> intensities = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};

  std::printf("Experiment 1: one 64-request LOSS batch, Heavy profile "
              "scaled by intensity (mean over trials)\n\n");
  const int batch_n = 64;
  const int64_t trials = ScaledTrials(2000, 40, 400, 8);
  Table t1;
  t1.SetHeader({"intensity", "exec s", "recovery s", "retries", "resets",
                "resched", "abandoned"});
  int violations = 0;
  for (double f : intensities) {
    drive::FaultProfile profile = drive::FaultProfile::Heavy().Scaled(f);
    drive::FaultInjector injector(profile);
    double exec = 0.0, recovery = 0.0;
    double retries = 0.0, resets = 0.0, resched = 0.0, abandoned = 0.0;
    for (int64_t trial = 0; trial < trials; ++trial) {
      Lrand48 rng(static_cast<int32_t>(trial + 1));
      std::vector<sched::Request> batch;
      batch.reserve(batch_n);
      for (int i = 0; i < batch_n; ++i)
        batch.push_back(sched::Request{rng.NextBounded(g.total_segments()), 1});
      auto schedule = sched::BuildSchedule(model, 0, batch,
                                           sched::Algorithm::kLoss);
      if (!schedule.ok()) return 1;
      injector.ReseedState(DeriveRand48State(profile.seed, trial));
      drive::ModelDrive base(model);
      drive::FaultDrive faulty(&base, &injector);
      sim::RecoveringExecutor executor(faulty, model);
      sim::RecoveringExecutionResult r = executor.Execute(*schedule);
      if (f == 0.0 &&
          r.total_seconds != sched::EstimateScheduleSeconds(model, *schedule)) {
        // Golden check: a zero-rate injector must not change execution.
        ++violations;
      }
      if (r.requests_serviced +
              static_cast<int64_t>(r.abandoned_segments.size()) !=
          batch_n) {
        ++violations;
      }
      exec += r.total_seconds;
      recovery += r.recovery_seconds;
      retries += static_cast<double>(r.retries);
      resets += static_cast<double>(r.drive_resets);
      resched += static_cast<double>(r.reschedules);
      abandoned += static_cast<double>(r.abandoned_segments.size());
    }
    double d = static_cast<double>(trials);
    t1.AddRow({Table::Num(f, 2), Table::Num(exec / d, 0),
               Table::Num(recovery / d, 0), Table::Num(retries / d, 2),
               Table::Num(resets / d, 3), Table::Num(resched / d, 3),
               Table::Num(abandoned / d, 3)});
  }
  t1.Print();
  std::printf("\naccounting violations: %d (must be 0)\n", violations);

  std::printf("\nExperiment 2: queued system at 60 arrivals/h "
              "(dispatch >=16), Light profile scaled by intensity\n\n");
  const int total =
      static_cast<int>(ScaledTrials(3000, 10, 60, 150));
  Table t2;
  t2.SetHeader({"intensity", "mean resp s", "p95 resp s", "utilization",
                "retries", "resets", "failed"});
  for (double f : intensities) {
    sim::OnlineServerConfig config;
    config.arrival_rate_per_hour = 60.0;
    config.total_requests = total;
    config.dispatch_min_batch = 16;
    config.faults = drive::FaultProfile::Light().Scaled(f);
    StatusOr<sim::OnlineServerResult> result =
        sim::RunOnlineServer(model, config);
    if (!result.ok()) {
      std::fprintf(stderr, "RunOnlineServer: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const sim::OnlineServerResult& r = *result;
    t2.AddRow({Table::Num(f, 2), Table::Num(r.mean_response_seconds, 0),
               Table::Num(r.p95_response_seconds, 0),
               Table::Num(r.utilization, 2),
               Table::Int(r.fault_retries), Table::Int(r.drive_resets),
               Table::Int(r.failed)});
  }
  t2.Print();
  std::printf(
      "\nExpected: execution time and response time grow smoothly with "
      "fault intensity (no cliffs, no crashes); recovery seconds and "
      "abandoned counts stay small below intensity 1; accounting "
      "violations stay 0 at every intensity.\n");
  return violations == 0 ? 0 : 1;
}
