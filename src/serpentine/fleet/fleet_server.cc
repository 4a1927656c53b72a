#include "serpentine/fleet/fleet_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "serpentine/fleet/engine.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/thread_pool.h"

namespace serpentine::fleet {

FleetTopology Fleet::Topology() const {
  FleetTopology topology;
  topology.capacity.reserve(models.size());
  for (const std::vector<const tape::LocateModel*>& lib : models) {
    std::vector<tape::SegmentId> caps;
    caps.reserve(lib.size());
    for (const tape::LocateModel* m : lib) {
      caps.push_back(m->geometry().total_segments());
    }
    topology.capacity.push_back(std::move(caps));
  }
  return topology;
}

bool Fleet::SupportsConcurrentUse() const {
  for (const std::vector<const tape::LocateModel*>& lib : models) {
    for (const tape::LocateModel* m : lib) {
      if (!m->SupportsConcurrentUse()) return false;
    }
  }
  return true;
}

UniformFleet::UniformFleet(const tape::TapeParams& params,
                           tape::DriveTimings timings, int libraries,
                           int cartridges_per_library, int32_t first_seed) {
  SERPENTINE_CHECK_GE(libraries, 1);
  SERPENTINE_CHECK_GE(cartridges_per_library, 1);
  fleet_.models.resize(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    for (int cart = 0; cart < cartridges_per_library; ++cart) {
      int32_t seed = first_seed + lib * cartridges_per_library + cart;
      owned_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
          tape::TapeGeometry::Generate(params, seed), timings));
      fleet_.models[lib].push_back(owned_.back().get());
    }
  }
}

Status ValidateFleetConfig(const Fleet& fleet, const FleetConfig& config) {
  if (fleet.libraries() < 1) {
    return InvalidArgumentError("FleetConfig: fleet has no libraries");
  }
  for (int lib = 0; lib < fleet.libraries(); ++lib) {
    if (fleet.models[lib].empty()) {
      return InvalidArgumentError("FleetConfig: library " +
                                  std::to_string(lib) + " has no cartridges");
    }
    for (const tape::LocateModel* m : fleet.models[lib]) {
      if (m == nullptr) {
        return InvalidArgumentError("FleetConfig: library " +
                                    std::to_string(lib) +
                                    " holds a null model");
      }
    }
  }
  SERPENTINE_RETURN_IF_ERROR(
      sim::ValidateOnlineServerConfig(config.serving));
  SERPENTINE_RETURN_IF_ERROR(ValidateRouterOptions(config.router));
  if (config.logical_segments < 0) {
    return InvalidArgumentError(
        "FleetConfig: logical_segments must be >= 0 (0 = capacity / "
        "replication), got " +
        std::to_string(config.logical_segments));
  }
  if (!std::isfinite(config.mount_exchange_seconds) ||
      config.mount_exchange_seconds < 0.0) {
    return InvalidArgumentError(
        "FleetConfig: mount_exchange_seconds must be finite and >= 0, "
        "got " +
        std::to_string(config.mount_exchange_seconds));
  }
  // Placement knobs (replication bounds, weights) are validated by
  // Catalog::Build against the actual topology.
  return OkStatus();
}

StatusOr<FleetResult> RunFleet(const Fleet& fleet, const FleetConfig& config) {
  const int libraries = fleet.libraries();
  SERPENTINE_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                              Engine::Create(fleet, config, libraries));

  // The fleet-wide arrival stream draws logical segments with the exact
  // generator of RunOnlineServer; with the identity catalog of a
  // 1-library / replication-1 fleet these are already physical segments.
  std::vector<sim::ServingRequest> arrivals =
      GenerateOnlineArrivals(config.serving, engine->logical_segments());

  // First arrival routed to each library, for per-library makespans.
  std::vector<double> first_routed(libraries,
                                   std::numeric_limits<double>::infinity());
  for (const sim::ServingRequest& a : arrivals) {
    // Every core may now advance to the arrival instant: no earlier
    // arrival can still be routed anywhere.
    engine->CrankTo(a.time);
    int lib = engine->Route(a);
    first_routed[lib] = std::min(first_routed[lib], a.time);
  }
  engine->Finish();

  // ---- aggregation ----
  FleetResult out;
  out.per_library.resize(libraries);
  out.routed_per_library = engine->router().dispatches_per_library();
  out.placed_per_library = engine->catalog().placed_per_library();
  out.failovers = engine->router().failovers();

  // Fleet totals: fold the raw tallies, then finalize once with the
  // single-library expressions (for one library this IS RunOnlineServer's
  // arithmetic, value for value).
  out.total = engine->FoldTallies();
  std::vector<double> all_responses;
  for (int lib = 0; lib < libraries; ++lib) {
    sim::ServingCore& core = engine->core(lib);
    const sim::OnlineServerResult& r = core.result();

    // Per-library view: the library's own clock span.
    out.per_library[lib] = r;
    std::vector<double> responses = core.responses();
    FinalizeOnlineServerResult(
        &out.per_library[lib], &responses, core.batch_sum(), core.clock(),
        std::isfinite(first_routed[lib]) ? first_routed[lib] : core.clock());

    out.total.breaker_transitions.insert(out.total.breaker_transitions.end(),
                                         r.breaker_transitions.begin(),
                                         r.breaker_transitions.end());
    out.total.shed_records.insert(out.total.shed_records.end(),
                                  r.shed_records.begin(),
                                  r.shed_records.end());
    all_responses.insert(all_responses.end(), core.responses().begin(),
                         core.responses().end());
    out.cartridge_mounts += core.cartridge_mounts();
    out.mount_seconds += core.mount_seconds();
  }

  SERPENTINE_CHECK_EQ(out.total.shed + out.total.completed + out.total.failed,
                      config.serving.total_requests);
  SERPENTINE_CHECK_EQ(out.total.arrivals, config.serving.total_requests);

  FinalizeOnlineServerResult(&out.total, &all_responses, engine->batch_sum(),
                             engine->end_clock(),
                             arrivals.empty() ? 0.0 : arrivals[0].time);
  return out;
}

StatusOr<ReplicatedFleetStats> RunReplicatedFleet(const Fleet& fleet,
                                                  const FleetConfig& config,
                                                  int replications,
                                                  int threads) {
  SERPENTINE_RETURN_IF_ERROR(ValidateFleetConfig(fleet, config));
  // Replica r reseeds only the serving stream; placement (ingest state) is
  // not re-drawn.
  auto run = [&](int64_t r) {
    FleetConfig replica = config;
    replica.serving.seed = DeriveReplicaSeed(config.serving.seed, r);
    return RunFleet(fleet, replica);
  };
  ReplicatedFleetStats stats;
  SERPENTINE_ASSIGN_OR_RETURN(
      stats.results,
      RunReplicas<FleetResult>(replications, threads,
                               fleet.SupportsConcurrentUse(), run));

  // Fold in replication order: thread-count invariant.
  for (const FleetResult& r : stats.results) {
    stats.mean_response_seconds.Add(r.total.mean_response_seconds);
    stats.p99_response_seconds.Add(r.total.p99_response_seconds);
    stats.utilization.Add(r.total.utilization);
    stats.throughput_per_hour.Add(r.total.throughput_per_hour);
    stats.shed_fraction.Add(r.total.arrivals > 0
                                ? static_cast<double>(r.total.shed) /
                                      r.total.arrivals
                                : 0.0);
    stats.deadline_miss_fraction.Add(
        r.total.admitted > 0
            ? static_cast<double>(r.total.deadline_missed) / r.total.admitted
            : 0.0);
    stats.failover_fraction.Add(
        r.total.arrivals > 0
            ? static_cast<double>(r.failovers) / r.total.arrivals
            : 0.0);
  }
  return stats;
}

}  // namespace serpentine::fleet
