// Million-request stress harness: an open-loop, multi-tenant request
// stream (workload::ArrivalProcess) driven incrementally through the
// fleet serving engine (fleet::Engine: catalog, one sim::ServingCore per
// library, router; the same engine fleet::RunFleet drives) — with two
// service-layer effects the sim configs don't model:
//
//   * a segment cache (LRU over logical segments): a request whose segment
//     is cached is answered at arrival, latency 0, never dispatched;
//   * cross-tenant duplicate coalescing: a request for a segment already
//     in flight piggybacks on the primary read and completes (or sheds)
//     with it instead of dispatching its own.
//
// Every arrival therefore takes exactly one of four terminal paths —
// cache hit, coalesced, answered by the engine (OK or failed), or shed —
// and RunStress checks the conservation identity
//   arrivals == cache_hits + coalesced + completed + failed + shed
// (coalesced waiters of a shed primary count under shed).
//
// Determinism: the arrival process, tenant draw, and segment draw come
// from three decorrelated rand48 streams derived from one seed; the cores
// are the pinned deterministic engine; and the harness cranks every core
// to each arrival instant before admitting it, so the whole run is a pure
// function of the config. RunReplicatedStress is thread-count invariant
// by the repo-wide recipe (replica r reseeds from DeriveReplicaSeed(seed,
// r); results fold in replica order).
//
// Latencies are recorded into obs::Histogram (p50/p95/p99/p99.9 within
// one log₂ bucket, exact min/max — see Histogram::Quantile) rather than a
// sorted vector, so a million-request run costs O(buckets) memory for its
// tail statistics.
#ifndef SERPENTINE_STRESS_STRESS_H_
#define SERPENTINE_STRESS_STRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/obs/histogram.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/stats.h"
#include "serpentine/util/statusor.h"

namespace serpentine::stress {

/// One tenant's share of the request stream. Tenants are drawn per
/// arrival, weighted, from a stream separate from arrival timing — adding
/// a tenant never shifts when requests arrive.
struct TenantSpec {
  std::string name;
  double weight = 1.0;
};

struct StressConfig {
  /// Arrival process: "poisson", "diurnal", or "bursty"
  /// (workload::MakeArrivalProcess), at this long-run mean rate.
  std::string process = "poisson";
  double arrival_rate_per_hour = 60.0;
  int64_t total_requests = 10000;
  int32_t seed = 1;

  /// The request mix. Empty = one tenant ("t0", weight 1).
  std::vector<TenantSpec> tenants;

  /// LRU segment-cache capacity in logical segments; 0 disables caching.
  int64_t cache_capacity = 0;
  /// Coalesce duplicate in-flight segment reads.
  bool coalesce_duplicates = false;

  /// Serving-engine knobs (dispatch policy, algorithm, admission,
  /// deadlines, degradation, faults, breaker). Its own arrival knobs
  /// (arrival_rate_per_hour, total_requests, seed) are ignored — the
  /// stress stream above replaces them.
  sim::OnlineServerConfig serving;

  /// Fleet shape. 1 library = single core; > 1 = catalog + router
  /// (placement/router/mount knobs below apply).
  int libraries = 1;
  fleet::PlacementOptions placement;
  fleet::RouterOptions router;
  double mount_exchange_seconds = 0.0;
};

/// Per-tenant accounting. Terminal counts sum to `arrivals`; response
/// statistics cover every answered request (hits at 0 latency, coalesced
/// at the primary's completion).
struct TenantStats {
  std::string name;
  double weight = 1.0;
  int64_t arrivals = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  int64_t completed = 0;  ///< answered OK by the engine
  int64_t failed = 0;     ///< answered with an error
  int64_t shed = 0;       ///< shed at admission (or waiting on a shed read)
  obs::Histogram response;
};

struct StressResult {
  /// Terminal-path totals; arrivals == cache_hits + coalesced + completed
  /// + failed + shed (checked).
  int64_t arrivals = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  /// Requests actually pushed into the serving engine(s).
  int64_t dispatched = 0;

  /// End-to-end latency over every *answered* request (hits, coalesced,
  /// engine completions; sheds excluded).
  obs::Histogram latency;
  double mean_response_seconds = 0.0;
  double p50_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double p99_response_seconds = 0.0;
  double p999_response_seconds = 0.0;
  double max_response_seconds = 0.0;

  double makespan_seconds = 0.0;       ///< first arrival to last core clock
  double throughput_per_hour = 0.0;    ///< answered / makespan
  double offered_rate_per_hour = 0.0;  ///< arrivals / arrival span
  /// Summed drive busy / makespan (can exceed 1 with several libraries).
  double utilization = 0.0;

  std::vector<TenantStats> tenants;
  /// Jain fairness index over per-tenant answered throughput normalized
  /// by weight: 1 = perfectly proportional, 1/n = one tenant starved.
  double fairness_jain = 1.0;

  /// Aggregated engine tallies (fleet::Engine::FoldTallies).
  sim::OnlineServerResult engine;
};

/// Rejects bad process names/rates, non-positive tenant weights, negative
/// cache capacity, and invalid nested serving/placement/router configs.
Status ValidateStressConfig(const StressConfig& config);

/// Runs the stream to completion: every arrival answered or shed, every
/// core drained. Fails only on an invalid configuration (and propagates
/// catalog build errors for unplaceable fleet shapes). `models[lib][cart]`
/// borrows the fleet's locate models, as fleet::Fleet does; a
/// single-library single-cartridge run passes {{&model}}.
StatusOr<StressResult> RunStress(
    const std::vector<std::vector<const tape::LocateModel*>>& models,
    const StressConfig& config);

/// Independent replications, thread-count invariant.
struct ReplicatedStressStats {
  std::vector<StressResult> results;
  Accumulator p99_response_seconds;
  Accumulator throughput_per_hour;
  Accumulator shed_fraction;
  Accumulator cache_hit_fraction;
  Accumulator fairness_jain;
};

StatusOr<ReplicatedStressStats> RunReplicatedStress(
    const std::vector<std::vector<const tape::LocateModel*>>& models,
    const StressConfig& config, int replications, int threads = 0);

}  // namespace serpentine::stress

#endif  // SERPENTINE_STRESS_STRESS_H_
