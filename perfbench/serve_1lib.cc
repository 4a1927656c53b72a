// serve-1lib: open loop in simulated time. Poisson arrivals on one
// library through sim::RunOnlineServer with the served configuration of
// bench/stress (LOSS, admission depth cap 256, batch cap 64), over a
// fixed ladder of offered rates plus one overload point.
#include <optional>
#include <vector>

#include "serpentine/sim/online_server.h"
#include "serpentine/tape/locate_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace serpentine;

constexpr double kLadderLow = 40.0;
constexpr double kLadderStep = 5.0;
constexpr int kLadderPoints = 13;  // 40, 45, ..., 100 per hour
constexpr double kOperatingRate = 80.0;
constexpr double kOverloadRate = 400.0;
constexpr int64_t kRequestsPerPoint = 50000;
/// The operating point runs longer so its tail statistics are steady
/// across seeds.
constexpr int64_t kOperatingPointRequests = 400000;
constexpr int64_t kWarmUpRequests = 2000;
/// A ladder point meets the SLO when its exact p99 is within this many
/// modeled seconds and it shed nothing.
constexpr double kSloSeconds = 3600.0;

sim::OnlineServerConfig ServedConfig(double rate, int32_t seed) {
  sim::OnlineServerConfig c;
  c.arrival_rate_per_hour = rate;
  c.total_requests =
      rate == kOperatingRate ? kOperatingPointRequests : kRequestsPerPoint;
  c.algorithm = sched::Algorithm::kLoss;
  c.seed = seed;
  c.admission.enabled = true;
  c.admission.max_queue_depth = 256;
  c.dispatch_max_batch = 64;
  return c;
}

bool SameModeled(const sim::OnlineServerResult& a,
                 const sim::OnlineServerResult& b) {
  return a.completed == b.completed && a.shed == b.shed &&
         a.failed == b.failed && a.batches == b.batches &&
         a.mean_response_seconds == b.mean_response_seconds &&
         a.p99_response_seconds == b.p99_response_seconds &&
         a.makespan_seconds == b.makespan_seconds &&
         a.drive_busy_seconds == b.drive_busy_seconds;
}

double AnsweredPerHour(const sim::OnlineServerResult& r) {
  return r.completed / (r.makespan_seconds / 3600.0);
}

}  // namespace

void RunServe1Lib(const Args& args, Spans& spans, Report& report) {
  std::optional<tape::Dlt4000LocateModel> model;
  std::vector<sim::OnlineServerConfig> configs;  // ladder, then overload
  report.Set("setup_s", MedianSetupSeconds([&] {
               model.emplace(
                   tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
                   tape::Dlt4000Timings());
               configs.clear();
               for (int i = 0; i < kLadderPoints; ++i) {
                 configs.push_back(
                     ServedConfig(kLadderLow + kLadderStep * i, args.seed));
               }
               configs.push_back(ServedConfig(kOverloadRate, args.seed));
               // Warm-up: the first call builds the scheduler registry and
               // allocator pools, which every later call reuses.
               sim::OnlineServerConfig warm_up =
                   ServedConfig(kOperatingRate, args.seed);
               warm_up.total_requests = kWarmUpRequests;
               report.Check(sim::RunOnlineServer(*model, warm_up).ok(),
                            "warm-up RunOnlineServer failed");
             }));
  if (!report.errors.empty()) return;

  std::vector<sim::OnlineServerResult> results;  // first round
  BestTimes best;  // by ladder point, untraced rounds
  RunRounds(args, spans, 3, report, [&](int index, bool traced) {
    double seconds = 0.0;
    for (size_t i = 0; i < configs.size(); ++i) {
      // Rounds last seconds, so each call, not only each round, moves on
      // to the next CPU; ladder point i visits every CPU across rounds.
      RunOnCpuSlot(index + static_cast<int>(i));
      std::optional<StatusOr<sim::OnlineServerResult>> result;
      double call = spans.Time("sim.run", [&] {
        result.emplace(sim::RunOnlineServer(*model, configs[i]));
      });
      seconds += call;
      if (!traced) best.Add(i, call);
      report.attempted += configs[i].total_requests;
      if (!result->ok()) {
        report.failed += configs[i].total_requests;
        report.Check(false,
                     "RunOnlineServer: " + result->status().ToString());
        continue;
      }
      const sim::OnlineServerResult& r = **result;
      if (index == 0) {
        results.push_back(r);
      } else {
        report.Check(SameModeled(r, results[i]),
                     "modeled results differ between rounds");
      }
    }
    return seconds;
  });
  if (!report.errors.empty()) return;

  double rate_at_slo = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const sim::OnlineServerResult& r = results[i];
    report.Check(r.arrivals == configs[i].total_requests,
                 "a ladder point lost arrivals");
    report.Check(r.shed + r.completed + r.failed == r.arrivals,
                 "shed + completed + failed != arrivals");
    if (static_cast<int>(i) < kLadderPoints && r.shed == 0 &&
        r.p99_response_seconds <= kSloSeconds) {
      rate_at_slo = configs[i].arrival_rate_per_hour;
    }
  }
  if (!report.errors.empty()) return;

  const sim::OnlineServerResult& op =
      results[static_cast<size_t>((kOperatingRate - kLadderLow) /
                                  kLadderStep)];
  report.SetModeled("makespan_s", op.drive_busy_seconds / op.batches);
  report.SetModeled("mean_response_s", op.mean_response_seconds);
  report.SetModeled("p99_response_s", op.p99_response_seconds);
  report.SetModeled("answered_per_h", AnsweredPerHour(op));
  report.SetModeled("ok_share",
                    static_cast<double>(op.completed) / op.arrivals);
  double batches = 0.0;
  double arrivals = 0.0;
  for (const sim::OnlineServerResult& r : results) {
    batches += r.batches;
    arrivals += r.arrivals;
  }
  report.Set("build_s", best.Total() / batches);
  report.Set("sim_requests_per_s", arrivals / best.Total());

  report.SetModeled("drive.fault_retries", op.fault_retries);
  report.SetModeled("drive.recovery_s", op.recovery_seconds);
  report.SetModeled("drive.breaker_fast_fails", op.breaker_fast_fails);
  report.SetModeled("drive.breaker_wait_s", op.breaker_wait_seconds);
  report.Set("sim.run_s", Median(spans.durations("sim.run")));
  report.SetModeled("sim.mean_batch_size", op.mean_batch_size);
  report.SetModeled("sim.busy_s_per_request",
                    op.drive_busy_seconds / op.completed);
  report.SetModeled("sim.utilization", op.utilization);
  report.SetModeled("sim.rate_at_slo_per_h", rate_at_slo);
  report.SetModeled("sim.saturation_per_h", AnsweredPerHour(results.back()));
  report.SetModeled("sim.shed_share",
                    static_cast<double>(op.shed) / op.arrivals);
  report.SetModeled("sim.failed_share",
                    static_cast<double>(op.failed) / op.arrivals);
  report.SetModeled("obs.max_response_s", op.max_response_seconds);
}

}  // namespace perfbench
