#include "serpentine/stress/stress.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "serpentine/fleet/engine.h"
#include "serpentine/store/segment_cache.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/thread_pool.h"
#include "serpentine/workload/arrival_process.h"

namespace serpentine::stress {
namespace {

/// Stream indices deriving the tenant and segment rand48 streams from the
/// config seed. Fixed, distinct from the online-extras stream (1000003),
/// the library-fault stride (1000033), and each other; they must never
/// change — the stress determinism tests pin the draws.
constexpr int64_t kTenantStream = 1000081;
constexpr int64_t kSegmentStream = 1000099;

struct Waiter {
  int tenant = 0;
  double time = 0.0;
};

/// What the harness remembers about a pushed (primary) request.
struct PushedMeta {
  int tenant = 0;
  int64_t logical = 0;
};

double JainIndex(const std::vector<TenantStats>& tenants) {
  double sum = 0.0, sum_sq = 0.0;
  for (const TenantStats& t : tenants) {
    double answered =
        static_cast<double>(t.cache_hits + t.coalesced + t.completed +
                            t.failed);
    double x = t.weight > 0.0 ? answered / t.weight : 0.0;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(tenants.size()) * sum_sq);
}

/// The engine's view of a stress config: the serving knobs with the stress
/// arrival knobs patched in (inert, as arrivals are pushed, but they keep
/// the validated config self-consistent) and the fleet knobs as given.
fleet::FleetConfig EngineConfig(const StressConfig& config) {
  fleet::FleetConfig engine;
  engine.serving = config.serving;
  engine.serving.arrival_rate_per_hour = config.arrival_rate_per_hour;
  engine.serving.total_requests = config.total_requests;
  engine.serving.seed = config.seed;
  engine.placement = config.placement;
  engine.router = config.router;
  engine.mount_exchange_seconds = config.mount_exchange_seconds;
  return engine;
}

}  // namespace

Status ValidateStressConfig(const StressConfig& config) {
  // Trial-build the process: MakeArrivalProcess owns the name/rate rules.
  SERPENTINE_RETURN_IF_ERROR(workload::MakeArrivalProcess(
                                 config.process, config.arrival_rate_per_hour,
                                 config.seed)
                                 .status());
  for (const TenantSpec& t : config.tenants) {
    if (!std::isfinite(t.weight) || t.weight <= 0.0) {
      return InvalidArgumentError(
          "StressConfig: tenant '" + t.name +
          "' weight must be finite and > 0, got " + std::to_string(t.weight));
    }
  }
  if (config.cache_capacity < 0) {
    return InvalidArgumentError(
        "StressConfig: cache_capacity must be >= 0 (0 = disabled), got " +
        std::to_string(config.cache_capacity));
  }
  if (config.libraries < 1) {
    return InvalidArgumentError(
        "StressConfig: libraries must be >= 1, got " +
        std::to_string(config.libraries));
  }
  // The serving config is validated with the stress arrival knobs patched
  // in, so total_requests inherits the online server's [1, 2^32) id-packing
  // bound.
  SERPENTINE_RETURN_IF_ERROR(
      sim::ValidateOnlineServerConfig(EngineConfig(config).serving));
  SERPENTINE_RETURN_IF_ERROR(fleet::ValidateRouterOptions(config.router));
  return OkStatus();
}

StatusOr<StressResult> RunStress(
    const std::vector<std::vector<const tape::LocateModel*>>& models,
    const StressConfig& config) {
  SERPENTINE_RETURN_IF_ERROR(ValidateStressConfig(config));
  fleet::Fleet fl;
  fl.models = models;
  SERPENTINE_ASSIGN_OR_RETURN(
      std::unique_ptr<fleet::Engine> engine,
      fleet::Engine::Create(fl, EngineConfig(config), config.libraries));
  const int64_t logical = engine->logical_segments();

  // Decorrelated request-mix streams.
  SERPENTINE_ASSIGN_OR_RETURN(
      std::unique_ptr<workload::ArrivalProcess> process,
      workload::MakeArrivalProcess(config.process,
                                   config.arrival_rate_per_hour,
                                   config.seed));
  Lrand48 tenant_rng;
  tenant_rng.SeedState(DeriveRand48State(config.seed, kTenantStream));
  Lrand48 segment_rng;
  segment_rng.SeedState(DeriveRand48State(config.seed, kSegmentStream));

  StressResult out;
  out.tenants.resize(config.tenants.empty() ? 1 : config.tenants.size());
  double weight_sum = 0.0;
  for (size_t i = 0; i < out.tenants.size(); ++i) {
    if (config.tenants.empty()) {
      out.tenants[i].name = "t0";
      out.tenants[i].weight = 1.0;
    } else {
      out.tenants[i].name = config.tenants[i].name;
      out.tenants[i].weight = config.tenants[i].weight;
    }
    weight_sum += out.tenants[i].weight;
  }

  // LRU over logical segments (cartridge 0 stands for the whole fleet).
  store::SegmentCache cache(static_cast<size_t>(config.cache_capacity));
  // Coalescing state: logical segment → waiters riding the in-flight
  // primary. Only populated when coalescing is on (at most one in-flight
  // primary per segment then).
  std::unordered_map<int64_t, std::vector<Waiter>> inflight;
  std::unordered_map<int64_t, PushedMeta> pushed;  // primary id → meta

  auto answer = [&](int tenant, double latency) {
    out.latency.Add(latency);
    out.tenants[tenant].response.Add(latency);
  };

  // Completion hook: credit the primary's tenant, fill the cache, release
  // coalesced waiters.
  engine->set_completion_callback([&](const sim::ServingRequest& req,
                                      double at, bool ok) {
    auto it = pushed.find(req.id);
    SERPENTINE_CHECK(it != pushed.end());
    PushedMeta meta = it->second;
    pushed.erase(it);
    TenantStats& t = out.tenants[meta.tenant];
    if (ok) {
      ++t.completed;
      cache.Insert(store::CacheKey{0, meta.logical});
    } else {
      ++t.failed;
    }
    answer(meta.tenant, at - req.time);
    auto fit = inflight.find(meta.logical);
    if (fit != inflight.end()) {
      for (const Waiter& w : fit->second) {
        ++out.coalesced;
        ++out.tenants[w.tenant].coalesced;
        answer(w.tenant, at - w.time);
      }
      inflight.erase(fit);
    }
  });

  // Shed draining: the engine records sheds in result().shed_records but
  // fires no callback; consume the growth after every crank so waiters on
  // a shed primary are released (as sheds) promptly.
  std::vector<size_t> shed_seen(engine->libraries(), 0);
  int64_t shed_waiters = 0;
  auto drain_sheds = [&] {
    for (int c = 0; c < engine->libraries(); ++c) {
      const std::vector<sim::ShedRecord>& records =
          engine->core(c).result().shed_records;
      for (; shed_seen[c] < records.size(); ++shed_seen[c]) {
        auto it = pushed.find(records[shed_seen[c]].id);
        SERPENTINE_CHECK(it != pushed.end());
        PushedMeta meta = it->second;
        pushed.erase(it);
        ++out.tenants[meta.tenant].shed;
        auto fit = inflight.find(meta.logical);
        if (fit != inflight.end()) {
          for (const Waiter& w : fit->second) {
            ++shed_waiters;
            ++out.tenants[w.tenant].shed;
          }
          inflight.erase(fit);
        }
      }
    }
  };

  double first_arrival = 0.0;
  double last_arrival = 0.0;
  for (int64_t i = 0; i < config.total_requests; ++i) {
    double t = process->NextSeconds();
    if (i == 0) first_arrival = t;
    last_arrival = t;
    // The tenant and segment draws are consumed unconditionally, so the
    // stream of (time, tenant, segment) triples is independent of cache
    // and coalescing outcomes.
    int tenant = 0;
    {
      double u = tenant_rng.NextDouble() * weight_sum;
      double acc = 0.0;
      for (size_t k = 0; k < out.tenants.size(); ++k) {
        acc += out.tenants[k].weight;
        if (u < acc || k + 1 == out.tenants.size()) {
          tenant = static_cast<int>(k);
          break;
        }
      }
    }
    int64_t segment = segment_rng.NextBounded(logical);
    ++out.arrivals;
    ++out.tenants[tenant].arrivals;

    // Let every core serve up to the arrival instant before the request
    // looks at cache/in-flight state — the trajectory is then a pure
    // function of the config, independent of any host-side interleaving.
    engine->CrankTo(t);
    drain_sheds();

    if (cache.Lookup(store::CacheKey{0, segment})) {
      ++out.cache_hits;
      ++out.tenants[tenant].cache_hits;
      answer(tenant, 0.0);
      continue;
    }
    if (config.coalesce_duplicates) {
      auto it = inflight.find(segment);
      if (it != inflight.end()) {
        it->second.push_back(Waiter{tenant, t});
        continue;
      }
    }

    // Primary read: the engine routes it to a replica's core.
    sim::ServingRequest req;
    req.time = t;
    req.segment = segment;
    req.id = (static_cast<int64_t>(config.seed) << 32) | i;
    engine->Route(req);
    pushed[req.id] = PushedMeta{tenant, segment};
    if (config.coalesce_duplicates) inflight[segment];  // open the entry
    ++out.dispatched;
  }

  engine->Finish();
  drain_sheds();
  SERPENTINE_CHECK(pushed.empty());
  SERPENTINE_CHECK(inflight.empty());

  // ---- aggregation ----
  out.engine = engine->FoldTallies();
  const double end_clock = engine->end_clock();

  out.completed = out.engine.completed;
  out.failed = out.engine.failed;
  out.shed = out.engine.shed + shed_waiters;
  SERPENTINE_CHECK_EQ(out.engine.arrivals, out.dispatched);
  // The conservation identity: every arrival took exactly one terminal
  // path.
  SERPENTINE_CHECK_EQ(out.cache_hits + out.coalesced + out.completed +
                          out.failed + out.shed,
                      out.arrivals);

  out.makespan_seconds = std::max(end_clock, last_arrival) - first_arrival;
  double arrival_span = last_arrival - first_arrival;
  out.offered_rate_per_hour =
      arrival_span > 0.0 ? out.arrivals / (arrival_span / 3600.0) : 0.0;
  int64_t answered = out.arrivals - out.shed;
  out.throughput_per_hour =
      out.makespan_seconds > 0.0
          ? answered / (out.makespan_seconds / 3600.0)
          : 0.0;
  out.utilization = out.makespan_seconds > 0.0
                        ? out.engine.drive_busy_seconds / out.makespan_seconds
                        : 0.0;

  if (out.latency.count() > 0) {
    out.mean_response_seconds =
        out.latency.total_seconds() / out.latency.count();
    out.p50_response_seconds = out.latency.Quantile(0.50);
    out.p95_response_seconds = out.latency.Quantile(0.95);
    out.p99_response_seconds = out.latency.Quantile(0.99);
    out.p999_response_seconds = out.latency.Quantile(0.999);
    out.max_response_seconds = out.latency.max_seconds();
  }
  out.fairness_jain = JainIndex(out.tenants);
  return out;
}

StatusOr<ReplicatedStressStats> RunReplicatedStress(
    const std::vector<std::vector<const tape::LocateModel*>>& models,
    const StressConfig& config, int replications, int threads) {
  SERPENTINE_RETURN_IF_ERROR(ValidateStressConfig(config));
  fleet::Fleet fl;
  fl.models = models;
  SERPENTINE_RETURN_IF_ERROR(
      fleet::Engine::Validate(fl, EngineConfig(config), config.libraries));
  auto run = [&](int64_t r) {
    StressConfig replica = config;
    replica.seed = DeriveReplicaSeed(config.seed, r);
    return RunStress(models, replica);
  };
  ReplicatedStressStats stats;
  SERPENTINE_ASSIGN_OR_RETURN(
      stats.results,
      RunReplicas<StressResult>(replications, threads,
                                fl.SupportsConcurrentUse(), run));

  // Fold in replica order: thread-count invariant.
  for (const StressResult& r : stats.results) {
    stats.p99_response_seconds.Add(r.p99_response_seconds);
    stats.throughput_per_hour.Add(r.throughput_per_hour);
    stats.shed_fraction.Add(
        r.arrivals > 0 ? static_cast<double>(r.shed) / r.arrivals : 0.0);
    stats.cache_hit_fraction.Add(
        r.arrivals > 0 ? static_cast<double>(r.cache_hits) / r.arrivals
                       : 0.0);
    stats.fairness_jain.Add(r.fairness_jain);
  }
  return stats;
}

}  // namespace serpentine::stress
