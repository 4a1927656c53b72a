#include "serpentine/sim/online_server.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/sched/registry.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/thread_pool.h"

namespace serpentine::sim {

Status ValidateOnlineServerConfig(const OnlineServerConfig& config) {
  if (!std::isfinite(config.arrival_rate_per_hour) ||
      config.arrival_rate_per_hour <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: arrival_rate_per_hour must be finite and > 0, "
        "got " +
        std::to_string(config.arrival_rate_per_hour));
  }
  if (config.total_requests < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: total_requests must be >= 1, got " +
        std::to_string(config.total_requests));
  }
  // The per-request async-span id packs (seed << 32) | arrival index; an
  // index at or above 2^32 would silently bleed into the seed bits and
  // alias another run's ids, so reject it here instead.
  if (config.total_requests >= (int64_t{1} << 32)) {
    return InvalidArgumentError(
        "OnlineServerConfig: total_requests must be < 2^32 (async-span ids "
        "pack the arrival index into 32 bits), got " +
        std::to_string(config.total_requests));
  }
  if (config.dispatch_min_batch < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_min_batch must be >= 1, got " +
        std::to_string(config.dispatch_min_batch));
  }
  // Infinity means "no wait bound" and is the default; NaN and non-positive
  // waits would make the dispatch policy undecidable.
  if (std::isnan(config.dispatch_max_wait_seconds) ||
      config.dispatch_max_wait_seconds <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_max_wait_seconds must be > 0 (inf = no "
        "bound), got " +
        std::to_string(config.dispatch_max_wait_seconds));
  }
  SERPENTINE_RETURN_IF_ERROR(drive::ValidateFaultProfile(config.faults));
  SERPENTINE_RETURN_IF_ERROR(ValidateRetryPolicy(config.fault_retry));
  if (config.dispatch_max_batch < 0) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_max_batch must be >= 0 (0 = "
        "unbounded), got " +
        std::to_string(config.dispatch_max_batch));
  }
  if (config.priority_classes < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: priority_classes must be >= 1, got " +
        std::to_string(config.priority_classes));
  }
  if (std::isnan(config.deadline_seconds) || config.deadline_seconds <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: deadline_seconds must be > 0 (inf = no "
        "deadlines), got " +
        std::to_string(config.deadline_seconds));
  }
  if (!std::isfinite(config.deadline_spread) || config.deadline_spread < 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: deadline_spread must be finite and >= 0, got " +
        std::to_string(config.deadline_spread));
  }
  if (config.max_wait_cycles < 0) {
    return InvalidArgumentError(
        "OnlineServerConfig: max_wait_cycles must be >= 0 (0 = unbounded), "
        "got " +
        std::to_string(config.max_wait_cycles));
  }
  if (config.admission.max_queue_depth < 0) {
    return InvalidArgumentError(
        "AdmissionPolicy: max_queue_depth must be >= 0 (0 = unbounded), "
        "got " +
        std::to_string(config.admission.max_queue_depth));
  }
  if (!std::isfinite(config.admission.slack) ||
      config.admission.slack <= 0.0) {
    return InvalidArgumentError(
        "AdmissionPolicy: slack must be finite and > 0, got " +
        std::to_string(config.admission.slack));
  }
  if (config.degradation.enabled) {
    if (config.degradation.rungs.empty()) {
      return InvalidArgumentError(
          "DegradationPolicy: rungs must name at least one scheduler");
    }
    for (const std::string& rung : config.degradation.rungs) {
      auto entry = sched::Registry::Default().Resolve(rung);
      if (!entry.ok()) {
        return AnnotateStatus(entry.status(),
                              "DegradationPolicy: unknown rung '" + rung +
                                  "'");
      }
    }
    if (config.degradation.queue_depth_step < 0) {
      return InvalidArgumentError(
          "DegradationPolicy: queue_depth_step must be >= 0 (0 = "
          "disabled), got " +
          std::to_string(config.degradation.queue_depth_step));
    }
    if (std::isnan(config.degradation.cpu_budget_seconds) ||
        config.degradation.cpu_budget_seconds <= 0.0) {
      return InvalidArgumentError(
          "DegradationPolicy: cpu_budget_seconds must be > 0 (inf = "
          "disabled), got " +
          std::to_string(config.degradation.cpu_budget_seconds));
    }
  }
  if (config.breaker_enabled) {
    SERPENTINE_RETURN_IF_ERROR(drive::ValidateBreakerPolicy(config.breaker));
  }
  return OkStatus();
}

StatusOr<OnlineServerResult> RunOnlineServer(const tape::LocateModel& model,
                                             const OnlineServerConfig& config) {
  SERPENTINE_RETURN_IF_ERROR(ValidateOnlineServerConfig(config));
  const tape::TapeGeometry& g = model.geometry();

  // Pre-generate the Poisson arrival stream, then crank the serving engine
  // through it one arrival at a time (the fleet layer drives the same
  // engine, which is what pins a 1-library fleet to this function's
  // results).
  std::vector<ServingRequest> arrivals =
      GenerateOnlineArrivals(config, g.total_segments());

  ServingCore core(std::vector<const tape::LocateModel*>{&model}, config,
                   /*fault_stream=*/config.seed);
  for (const ServingRequest& a : arrivals) {
    while (core.Step() == ServingStep::kRan) {
    }
    core.Push(a);
  }
  core.FinishInput();
  while (core.Step() == ServingStep::kRan) {
  }
  SERPENTINE_CHECK(core.Step() == ServingStep::kDone);
  core.FinishResult();

  OnlineServerResult result = core.result();

  SERPENTINE_CHECK_EQ(result.shed + result.completed + result.failed,
                      config.total_requests);
  SERPENTINE_CHECK_EQ(result.arrivals, config.total_requests);

  FinalizeOnlineServerResult(&result, &core.responses(), core.batch_sum(),
                             core.clock(),
                             arrivals.empty() ? 0.0 : arrivals[0].time);
  return result;
}

StatusOr<ReplicatedOnlineServerStats> RunReplicatedOnlineServer(
    const tape::LocateModel& model, const OnlineServerConfig& config,
    int replications, int threads) {
  SERPENTINE_RETURN_IF_ERROR(ValidateOnlineServerConfig(config));
  auto run = [&](int64_t r) {
    OnlineServerConfig replica = config;
    replica.seed = DeriveReplicaSeed(config.seed, r);
    return RunOnlineServer(model, replica);
  };
  ReplicatedOnlineServerStats stats;
  SERPENTINE_ASSIGN_OR_RETURN(
      stats.results,
      RunReplicas<OnlineServerResult>(replications, threads,
                                      model.SupportsConcurrentUse(), run));

  // Fold in replication order: thread-count invariant.
  for (const OnlineServerResult& r : stats.results) {
    stats.mean_response_seconds.Add(r.mean_response_seconds);
    stats.p99_response_seconds.Add(r.p99_response_seconds);
    stats.utilization.Add(r.utilization);
    stats.throughput_per_hour.Add(r.throughput_per_hour);
    stats.shed_fraction.Add(
        r.arrivals > 0 ? static_cast<double>(r.shed) / r.arrivals : 0.0);
    stats.deadline_miss_fraction.Add(
        r.admitted > 0 ? static_cast<double>(r.deadline_missed) / r.admitted
                       : 0.0);
  }
  return stats;
}

}  // namespace serpentine::sim
