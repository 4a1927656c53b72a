#include "serpentine/fleet/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/util/check.h"

namespace serpentine::fleet {
namespace {

/// Stream stride decorrelating library l's fault process: library 0 keeps
/// the single-library stream (fault_stream == serving.seed, the pin),
/// library l > 0 uses serving.seed + l * stride. Prime, and distinct from
/// the online extras stream; must never change — pinned tests depend on
/// the fault draws.
constexpr int64_t kLibraryFaultStride = 1000033;

}  // namespace

Status Engine::Validate(const Fleet& fleet, const FleetConfig& config,
                        int libraries) {
  if (fleet.libraries() != libraries) {
    return InvalidArgumentError("Fleet: config names " +
                                std::to_string(libraries) + " libraries but " +
                                std::to_string(fleet.libraries()) +
                                " model vectors were passed");
  }
  return ValidateFleetConfig(fleet, config);
}

StatusOr<std::unique_ptr<Engine>> Engine::Create(const Fleet& fleet,
                                                 const FleetConfig& config,
                                                 int libraries) {
  SERPENTINE_RETURN_IF_ERROR(Validate(fleet, config, libraries));
  FleetTopology topology = fleet.Topology();
  int64_t logical = config.logical_segments;
  if (logical == 0) {
    // Default catalog: the smallest library's capacity. A library never
    // holds more than one replica per logical segment, so no library can
    // overflow and placement succeeds under every policy — unlike packing
    // to total/replication, which the distinct-library constraint can make
    // infeasible when capacities are uneven. For one library this is its
    // full capacity: the identity catalog.
    logical = topology.library_segments(0);
    for (int lib = 1; lib < libraries; ++lib) {
      logical = std::min(logical, topology.library_segments(lib));
    }
  }
  SERPENTINE_ASSIGN_OR_RETURN(
      Catalog catalog, Catalog::Build(topology, logical, config.placement));
  return std::unique_ptr<Engine>(
      new Engine(std::move(catalog), fleet, config));
}

Engine::Engine(Catalog catalog, const Fleet& fleet, const FleetConfig& config)
    : catalog_(std::move(catalog)),
      router_(&catalog_, fleet.libraries(), config.router) {
  cores_.reserve(fleet.libraries());
  depth_gauges_.reserve(fleet.libraries());
  for (int lib = 0; lib < fleet.libraries(); ++lib) {
    cores_.push_back(std::make_unique<sim::ServingCore>(
        fleet.models[lib], config.serving,
        static_cast<int64_t>(config.serving.seed) + kLibraryFaultStride * lib,
        config.mount_exchange_seconds));
    depth_gauges_.push_back("fleet.lib" + std::to_string(lib) + ".depth");
  }
}

void Engine::set_completion_callback(
    const std::function<void(const sim::ServingRequest&, double, bool)>& cb) {
  for (std::unique_ptr<sim::ServingCore>& core : cores_) {
    core->set_completion_callback(cb);
  }
}

void Engine::CrankTo(double t) {
  for (std::unique_ptr<sim::ServingCore>& core : cores_) {
    core->AdvanceInputBound(t);
    while (core->Step() == sim::ServingStep::kRan) {
    }
  }
}

int Engine::Route(const sim::ServingRequest& request) {
  const std::vector<ReplicaLocation>& replicas =
      catalog_.replicas(request.segment);
  scores_.resize(replicas.size());
  for (size_t i = 0; i < replicas.size(); ++i) {
    const sim::ServingCore& core = *cores_[replicas[i].library];
    scores_[i].seconds =
        replicas.size() == 1
            ? 0.0
            : std::max(core.clock() - request.time, 0.0) +
                  core.EstimateServiceSeconds(replicas[i].cartridge,
                                              replicas[i].segment);
    scores_[i].breaker_open = core.breaker_open();
  }
  RouteDecision decision = router_.Route(request.segment, scores_);
  sim::ServingRequest routed = request;
  routed.segment = decision.location.segment;
  routed.cartridge = decision.location.cartridge;
  const int lib = decision.location.library;
  sim::ServingCore& target = *cores_[lib];
  target.Push(routed);
  obs::SetGauge(depth_gauges_[lib],
                static_cast<double>(target.queue_depth()));
  return lib;
}

void Engine::Finish() {
  for (std::unique_ptr<sim::ServingCore>& core : cores_) {
    core->FinishInput();
    while (core->Step() == sim::ServingStep::kRan) {
    }
    SERPENTINE_CHECK(core->Step() == sim::ServingStep::kDone);
    core->FinishResult();
  }
}

sim::OnlineServerResult Engine::FoldTallies() const {
  sim::OnlineServerResult total;
  for (const std::unique_ptr<sim::ServingCore>& core : cores_) {
    const sim::OnlineServerResult& r = core->result();
    total.arrivals += r.arrivals;
    total.admitted += r.admitted;
    total.completed += r.completed;
    total.failed += r.failed;
    total.shed += r.shed;
    total.deadline_missed += r.deadline_missed;
    total.batches += r.batches;
    total.drive_busy_seconds += r.drive_busy_seconds;
    total.fault_retries += r.fault_retries;
    total.drive_resets += r.drive_resets;
    total.reschedules += r.reschedules;
    total.permanent_errors += r.permanent_errors;
    total.recovery_seconds += r.recovery_seconds;
    total.max_wait_cycles_observed =
        std::max(total.max_wait_cycles_observed, r.max_wait_cycles_observed);
    total.degraded_batches += r.degraded_batches;
    total.degradation_max_rung =
        std::max(total.degradation_max_rung, r.degradation_max_rung);
    total.breaker_fast_fails += r.breaker_fast_fails;
    total.breaker_wait_seconds += r.breaker_wait_seconds;
  }
  if (total.batches > 0) total.mean_batch_size = batch_sum() / total.batches;
  return total;
}

double Engine::batch_sum() const {
  double sum = 0.0;
  for (const std::unique_ptr<sim::ServingCore>& core : cores_) {
    sum += core->batch_sum();
  }
  return sum;
}

double Engine::end_clock() const {
  double end = 0.0;
  for (const std::unique_ptr<sim::ServingCore>& core : cores_) {
    end = std::max(end, core->clock());
  }
  return end;
}

}  // namespace serpentine::fleet
