// The fleet serving engine: the one driving loop behind fleet::RunFleet
// and stress::RunStress. It owns the catalog, one sim::ServingCore per
// library (each with its own fault stream) and the replica router; the
// drivers only feed it arrivals — crank every core to the arrival instant,
// route, and finally drain and fold — and differ in what sits around that
// loop (RunFleet: per-library views; RunStress: cache, coalescing,
// tenants). Cranking every core before each route keeps the trajectory a
// pure function of the arrival stream, so both drivers stay thread-count
// invariant under replication.
#ifndef SERPENTINE_FLEET_ENGINE_H_
#define SERPENTINE_FLEET_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/fleet/router.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/statusor.h"

namespace serpentine::fleet {

class Engine {
 public:
  /// The checks Create runs: exactly `libraries` model vectors, then
  /// ValidateFleetConfig (fleet shape, serving, router and fleet knobs).
  /// Every failure is InvalidArgument.
  static Status Validate(const Fleet& fleet, const FleetConfig& config,
                         int libraries);

  /// Validates, builds the catalog (config.logical_segments, or the
  /// smallest library's capacity when 0) and one core per library, and
  /// arms the router. Every core gets config.serving as is. Fails on an
  /// invalid fleet or config, or an unplaceable catalog.
  static StatusOr<std::unique_ptr<Engine>> Create(const Fleet& fleet,
                                                  const FleetConfig& config,
                                                  int libraries);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int libraries() const { return static_cast<int>(cores_.size()); }
  /// Size of the logical segment space arrivals draw from.
  int64_t logical_segments() const { return catalog_.num_logical(); }
  const Catalog& catalog() const { return catalog_; }
  const Router& router() const { return router_; }
  const sim::ServingCore& core(int library) const { return *cores_[library]; }
  sim::ServingCore& core(int library) { return *cores_[library]; }

  /// Installs the same completion observer on every core (see
  /// sim::ServingCore::set_completion_callback).
  void set_completion_callback(
      const std::function<void(const sim::ServingRequest&, double, bool)>&
          cb);

  /// Promises every core that no future arrival precedes `t` and lets each
  /// one serve up to there.
  void CrankTo(double t);

  /// Routes `request` (its `segment` logical) to one replica's library and
  /// returns that library. Each replica bids backlog past the arrival plus
  /// the FIFO service estimate of (queue + this read); a lone replica bids
  /// 0, skipping the O(queue-depth) estimate the router would ignore.
  int Route(const sim::ServingRequest& request);

  /// Ends the input and drains every core to kDone.
  void Finish();

  /// Fleet-wide tallies after Finish: counts and seconds summed over cores
  /// in library order, maxima taken, mean_batch_size set. Records,
  /// responses and clock-derived fields are left to the caller.
  sim::OnlineServerResult FoldTallies() const;
  /// Summed batch sizes across cores (FinalizeOnlineServerResult's input).
  double batch_sum() const;
  /// The latest core clock: when the last library went idle.
  double end_clock() const;

 private:
  Engine(Catalog catalog, const Fleet& fleet, const FleetConfig& config);

  Catalog catalog_;
  std::vector<std::unique_ptr<sim::ServingCore>> cores_;
  Router router_;
  /// "fleet.lib<N>.depth", formatted once per library.
  std::vector<std::string> depth_gauges_;
  std::vector<ReplicaScore> scores_;
};

}  // namespace serpentine::fleet

#endif  // SERPENTINE_FLEET_ENGINE_H_
