// perfbench: the repository benchmark binary. One run measures one
// workload and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Earlier lines carry a provenance record, one line per
// metric, and the run's modeled values for determinism checks. Exits 1
// when a correctness check fails, 2 on bad arguments.
//
//   perfbench --workload batch-10k --seed 1 --seconds 20 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "harness.h"
#include "serpentine/util/env.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Mirrors BENCHMARK.json; README.md maps each metric to its layer.
constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"makespan_s", "s", true},
    {"build_s", "s", true},
    {"mean_response_s", "s", true},
    {"p99_response_s", "s", true},
    {"answered_per_h", "1/h", true},
    {"ok_share", "share", true},
    {"sim_requests_per_s", "1/s", true},
    {"sched.build_s", "s", false},
    {"sched.build_calls", "count", false},
    {"sched.estimate_s", "s", false},
    {"sched.read_bound_ratio", "ratio", false},
    {"drive.locates_per_request", "ratio", false},
    {"drive.scans", "count", false},
    {"drive.deliveries", "count", false},
    {"drive.locate_s", "s", false},
    {"drive.read_s", "s", false},
    {"drive.fault_retries", "count", false},
    {"drive.recovery_s", "s", false},
    {"drive.breaker_fast_fails", "count", false},
    {"drive.breaker_wait_s", "s", false},
    {"sim.run_s", "s", false},
    {"sim.mean_batch_size", "count", false},
    {"sim.busy_s_per_request", "s", false},
    {"sim.utilization", "share", false},
    {"sim.rate_at_slo_per_h", "1/h", false},
    {"sim.saturation_per_h", "1/h", false},
    {"sim.shed_share", "share", false},
    {"sim.failed_share", "share", false},
    {"fleet.catalog_build_s", "s", false},
    {"stress.run_s", "s", false},
    {"stress.cache_hit_share", "share", false},
    {"stress.coalesced_share", "share", false},
    {"stress.shed_share", "share", false},
    {"stress.failed_share", "share", false},
    {"stress.fairness_jain", "ratio", false},
    {"store.cache_hit_share", "share", false},
    {"store.mounts_per_op", "ratio", false},
    {"store.full_reads", "count", false},
    {"store.append_modeled_s", "s", false},
    {"store.submit_s", "s", false},
    {"store.append_s", "s", false},
    {"store.flush_s", "s", false},
    {"workload.generate_s", "s", false},
    {"obs.trace_overhead", "ratio", false},
    {"obs.hist_p99_response_s", "s", false},
    {"obs.max_response_s", "s", false},
};

struct Workload {
  const char* name;
  void (*run)(const Args&, Spans&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"batch-10k", RunBatch10k},
    {"serve-1lib", RunServe1Lib},
    {"fleet-mix", RunFleetMix},
    {"store-rw", RunStoreRw},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch-10k|serve-1lib|fleet-mix|store-rw --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing flag value");
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseInt(value, 0, 0x7fffffff, &v)) return Usage("bad --seed");
      args.seed = static_cast<int32_t>(v);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseInt(value, 1, 3600, &v)) return Usage("bad --seconds");
      args.seconds = static_cast<double>(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!ParseInt(value, 0, 1, &v)) return Usage("bad --trace");
      args.trace = v == 1;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");

  std::printf(
      "{\"record\":\"provenance\",\"workload\":\"%s\",\"seed\":%d,"
      "\"seconds\":%g,\"trace\":%d,\"commit\":\"%s\",\"source_digest\":"
      "\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\",\"nproc\":%u,"
      "\"threads\":%d}\n",
      workload->name, args.seed, args.seconds, args.trace ? 1 : 0,
      EnvOr("PERFBENCH_COMMIT", "unknown"),
      EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown"), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      serpentine::ResolveThreadCount(0));
  std::fflush(stdout);

  Spans spans;
  Report report;
  workload->run(args, spans, report);
  report.Set("peak_rss_mb", PeakRssMb());
  if (args.trace) {
    report.Set("obs.trace_overhead", report.round_times.trace_overhead());
  }

  std::string metrics;
  for (const MetricSpec& m : kMetrics) {
    if (m.end_to_end == args.trace) continue;
    auto it = report.metrics.find(m.name);
    double value = 0.0;  // a layer this workload does not call
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (m.end_to_end) {
      report.Check(false, std::string("no value for ") + m.name);
    }
    if (!std::isfinite(value)) {
      report.Check(false, std::string("non-finite ") + m.name);
      value = 0.0;
    }
    std::printf("metric %-26s %.17g %s\n", m.name, value, m.unit);
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += entry;
  }

  std::string modeled;
  for (const auto& [name, value] : report.modeled) {
    char entry[128];
    std::snprintf(entry, sizeof(entry), "%s\"%s\":%.17g",
                  modeled.empty() ? "" : ",", name.c_str(), value);
    modeled += entry;
  }
  auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      char entry[32];
      std::snprintf(entry, sizeof(entry), "%s%.6f", out.empty() ? "" : ",", v);
      out += entry;
    }
    return out;
  };
  std::printf("{\"record\":\"rounds\",\"untraced_s\":[%s],\"traced_s\":[%s]}\n",
              list(report.round_times.untraced).c_str(),
              list(report.round_times.traced).c_str());
  std::printf(
      "{\"record\":\"modeled\",\"workload\":\"%s\",\"seed\":%d,"
      "\"rounds\":%d,\"values\":{%s}}\n",
      workload->name, args.seed, report.rounds, modeled.c_str());

  if (args.trace && !args.trace_out.empty()) {
    serpentine::Status written = spans.WriteJson(args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED [%s]: %s\n",
                 workload->name, e.c_str());
  }
  const bool correct = report.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
