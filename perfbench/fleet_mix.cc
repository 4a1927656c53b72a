// fleet-mix: open loop of multi-tenant arrivals whose rate swings through
// overload every simulated day, through stress::RunStress on a 3-library
// fleet with replication 2, a segment cache, duplicate coalescing,
// injected drive faults and the breaker.
#include <algorithm>
#include <optional>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/obs/histogram.h"
#include "serpentine/stress/stress.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/lrand48.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace serpentine;

constexpr int kLibraries = 3;
constexpr int kCartridgesPerLibrary = 1;
/// Independent replications per run, seeded as stress::RunReplicatedStress
/// seeds them, and pooled. Each is one simulated day (the diurnal period)
/// at the mean rate, a RunStress call of well under a second, so a run
/// holds a few dozen host-time samples (see BestTimes in harness.h).
constexpr int kReplications = 16;
constexpr int64_t kRequestsPerReplication = 6000;  // 250/h for 24 h
constexpr int64_t kWarmUpRequests = 2000;

stress::StressConfig MixConfig(int32_t seed) {
  stress::StressConfig c;
  // The diurnal rate peaks at 1.8x the mean, far past what the fleet
  // serves (a Poisson stream at the mean already keeps all three drives
  // busy), so queues and router scoring peak every simulated day. The
  // bursty process overloads the same way, but its random dwell times
  // made mean response swing 12-21 % from seed to seed even over six
  // pooled replications; the diurnal swing is deterministic.
  c.process = "diurnal";
  c.arrival_rate_per_hour = 250.0;
  c.total_requests = kRequestsPerReplication;
  c.seed = seed;
  c.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
  c.cache_capacity = 4096;
  c.coalesce_duplicates = true;
  c.serving.algorithm = sched::Algorithm::kLoss;
  c.serving.admission.enabled = true;
  c.serving.admission.max_queue_depth = 256;
  c.serving.dispatch_max_batch = 64;
  c.serving.faults.transient_read_rate = 0.01;
  c.serving.faults.locate_overshoot_rate = 0.005;
  c.serving.faults.permanent_error_rate = 0.001;
  c.serving.breaker_enabled = true;
  c.libraries = kLibraries;
  c.placement.replication = 2;
  return c;
}

bool SameModeled(const stress::StressResult& a,
                 const stress::StressResult& b) {
  return a.cache_hits == b.cache_hits && a.coalesced == b.coalesced &&
         a.completed == b.completed && a.failed == b.failed &&
         a.shed == b.shed &&
         a.mean_response_seconds == b.mean_response_seconds &&
         a.p99_response_seconds == b.p99_response_seconds &&
         a.makespan_seconds == b.makespan_seconds &&
         a.engine.drive_busy_seconds == b.engine.drive_busy_seconds;
}

void CheckConservation(const stress::StressResult& r, int64_t requests,
                       Report& report) {
  report.Check(r.arrivals == requests, "arrivals lost");
  report.Check(r.cache_hits + r.coalesced + r.completed + r.failed +
                       r.shed ==
                   r.arrivals,
               "terminal paths do not conserve arrivals");
  int64_t tenant_arrivals = 0;
  for (const stress::TenantStats& t : r.tenants) {
    tenant_arrivals += t.arrivals;
    report.Check(t.cache_hits + t.coalesced + t.completed + t.failed +
                         t.shed ==
                     t.arrivals,
                 "tenant " + t.name + " does not conserve its arrivals");
  }
  report.Check(tenant_arrivals == r.arrivals,
               "tenant arrivals do not sum to arrivals");
}

}  // namespace

void RunFleetMix(const Args& args, Spans& spans, Report& report) {
  std::vector<stress::StressConfig> configs;
  for (int j = 0; j < kReplications; ++j) {
    configs.push_back(MixConfig(static_cast<int32_t>(
        DeriveRand48State(args.seed, j) & 0x7fffffff)));
  }
  std::optional<fleet::UniformFleet> fleet;
  std::vector<double> catalog_seconds;
  report.Set("setup_s", MedianSetupSeconds([&] {
               fleet.emplace(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                             kLibraries, kCartridgesPerLibrary);
               {
                 // RunStress builds its own catalog over the smallest
                 // library's capacity; this separate build on the same
                 // topology times that step alone.
                 fleet::FleetTopology topology = fleet->fleet().Topology();
                 double start = CpuNow();
                 auto catalog = fleet::Catalog::Build(
                     topology, topology.library_segments(0),
                     configs[0].placement);
                 catalog_seconds.push_back(CpuNow() - start);
                 report.Check(catalog.ok(), "Catalog::Build failed");
               }
               // Warm-up: a short stream through the whole stack, as
               // serve-1lib does. It also keeps setup_s from being only
               // the page faults of the catalog's allocations, which
               // swing with the host's memory state.
               stress::StressConfig warm_up = configs[0];
               warm_up.total_requests = kWarmUpRequests;
               report.Check(
                   stress::RunStress(fleet->fleet().models, warm_up).ok(),
                   "warm-up RunStress failed");
             }));
  report.Set("fleet.catalog_build_s", Median(catalog_seconds));
  if (!report.errors.empty()) return;

  // Traced runs run each replication untraced and then traced, so the
  // trace overhead compares equal work.
  const int per_replication = args.trace ? 2 : 1;
  const std::vector<std::vector<const tape::LocateModel*>>& models =
      fleet->fleet().models;
  std::vector<std::optional<stress::StressResult>> results(kReplications);
  // Per untraced round. Replications differ a little in work, so rounds
  // are compared per batch and per request, and the fastest kept.
  std::vector<double> seconds_per_batch;
  std::vector<double> seconds_per_request;
  RunRounds(args, spans, kReplications * per_replication, report,
            [&](int index, bool traced) {
    const int j = index / per_replication % kReplications;
    const stress::StressConfig& config = configs[j];
    std::optional<StatusOr<stress::StressResult>> result;
    double seconds = spans.Time("stress.run", [&] {
      result.emplace(stress::RunStress(models, config));
    });
    report.attempted += config.total_requests;
    if (!result->ok()) {
      report.failed += config.total_requests;
      report.Check(false, "RunStress: " + result->status().ToString());
      return seconds;
    }
    const stress::StressResult& r = **result;
    if (!results[j].has_value()) {
      CheckConservation(r, config.total_requests, report);
      results[j] = r;
    } else {
      report.Check(SameModeled(r, *results[j]),
                   "modeled results differ between rounds");
    }
    if (!traced) {
      seconds_per_batch.push_back(seconds / r.engine.batches);
      seconds_per_request.push_back(seconds / r.arrivals);
    }
    return seconds;
  });
  if (!report.errors.empty()) return;

  // Modeled metrics pool the replications.
  double arrivals = 0, shed = 0, failed = 0, cache_hits = 0, coalesced = 0;
  double makespan = 0, busy = 0, batches = 0, batch_requests = 0;
  double dispatched = 0, fairness = 0, max_response = 0;
  double fault_retries = 0, recovery = 0, fast_fails = 0, breaker_wait = 0;
  obs::Histogram latency;
  for (const std::optional<stress::StressResult>& result : results) {
    const stress::StressResult& r = *result;
    arrivals += r.arrivals;
    shed += r.shed;
    failed += r.failed;
    cache_hits += r.cache_hits;
    coalesced += r.coalesced;
    makespan += r.makespan_seconds;
    busy += r.engine.drive_busy_seconds;
    batches += r.engine.batches;
    batch_requests += r.engine.mean_batch_size * r.engine.batches;
    dispatched += r.dispatched;
    fairness += r.fairness_jain / kReplications;
    max_response = std::max(max_response, r.max_response_seconds);
    // MeteredDrive has no kCircuitOpen case, so breaker fast-fails are
    // read from the engine's own tallies.
    fault_retries += r.engine.fault_retries;
    recovery += r.engine.recovery_seconds;
    fast_fails += r.engine.breaker_fast_fails;
    breaker_wait += r.engine.breaker_wait_seconds;
    latency.Merge(r.latency);
  }
  const double answered_ok = arrivals - shed - failed;
  report.SetModeled("makespan_s", busy / batches);
  report.SetModeled("mean_response_s",
                    latency.total_seconds() / latency.count());
  // RunStress keeps latencies only in obs::Histogram, so this p99 is the
  // histogram's interpolated quantile (see README, "Exact latencies").
  report.SetModeled("p99_response_s", latency.Quantile(0.99));
  report.SetModeled("answered_per_h", answered_ok / (makespan / 3600.0));
  report.SetModeled("ok_share", answered_ok / arrivals);
  report.Set("build_s", Min(seconds_per_batch));
  report.Set("sim_requests_per_s", 1.0 / Min(seconds_per_request));

  report.SetModeled("drive.fault_retries", fault_retries / kReplications);
  report.SetModeled("drive.recovery_s", recovery / kReplications);
  report.SetModeled("drive.breaker_fast_fails", fast_fails / kReplications);
  report.SetModeled("drive.breaker_wait_s", breaker_wait / kReplications);
  report.SetModeled("sim.mean_batch_size", batch_requests / batches);
  report.SetModeled("sim.busy_s_per_request", busy / dispatched);
  report.SetModeled("sim.utilization", busy / makespan);
  report.Set("stress.run_s", Median(spans.durations("stress.run")));
  report.SetModeled("stress.cache_hit_share", cache_hits / arrivals);
  report.SetModeled("stress.coalesced_share", coalesced / arrivals);
  report.SetModeled("stress.shed_share", shed / arrivals);
  report.SetModeled("stress.failed_share", failed / arrivals);
  report.SetModeled("stress.fairness_jain", fairness);
  report.SetModeled("obs.hist_p99_response_s", latency.Quantile(0.99));
  report.SetModeled("obs.max_response_s", max_response);
}

}  // namespace perfbench
