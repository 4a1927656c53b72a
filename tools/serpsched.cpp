// serpsched: command-line serpentine tape schedule planner.
//
//   serpsched [options] [segment ...]
//
// Reads a batch of segment numbers (arguments, --stdin, or --random=N),
// schedules it with the chosen algorithm against a simulated cartridge,
// and prints the service order step by step — how the drive reaches each
// request (locate, stream or from the pass already read) and the modeled
// seconds of its locate and read legs, which sum to the estimate — plus a
// comparison against FIFO service.
//
// Options:
//   --algorithm=NAME   any registered scheduler (default loss):
//                      read|fifo|sort|opt|sltf|scan|weave|loss|sparse-loss
//                      plus variants loss-coalesced, sltf-naive
//                      (see sched/registry.h)
//   --drive=NAME       dlt4000|dlt7000|ibm3590 (default dlt4000)
//   --tape-seed=N      cartridge identity (default 1)
//   --initial=SEG      starting head position (default 0 = BOT)
//   --random=N         generate N uniform random requests (--seed=N)
//   --stdin            read one segment number per line from stdin
//   --workload=FILE    load requests from a workload trace file (see
//                      workload/trace_io.h for the format)
//   --improve          apply Or-opt local search to the schedule
//   --rewind           charge a rewind after the last read
//   --explain          show each locate step's model case and scan/read split
//   --quiet            print only the summary
//   --fault-profile=P  execute the schedule under fault injection and
//                      report recovery accounting. P is none|light|heavy
//                      or a key=value profile file (see
//                      sim/fault_injector.h); "none" still runs the
//                      recovering executor and must match the estimate.
//   --fault-seed=N     fault stream seed (default: the profile's seed)
//   --trace=FILE       execute the schedule and write a Chrome trace_event
//                      JSON timeline (open in chrome://tracing or
//                      https://ui.perfetto.dev; see docs/observability.md)
//   --metrics-json=FILE execute the schedule and write a metrics snapshot
//                      (counters/gauges/histograms) as JSON
//   --pipeline=N       split the batch into N arrival-order sub-batches and
//                      run them through the pipelined compute/execute
//                      runner (sim/pipeline.h): batch k+1's schedule is
//                      built while batch k executes, and the summary
//                      reports how much scheduling CPU the overlap hides.
//                      Combine with --trace to see the dual-clock overlap.
//   --online-rate=R    run an online-serving pass (sim/online_server.h):
//                      the same number of requests arriving Poisson at R
//                      per hour, served by the chosen algorithm, with the
//                      summary reporting shed/completed/failed counts and
//                      the p99 response. Honors --fault-profile for the
//                      drive's fault process. Implied (at 60/h) by any of
//                      the three flags below.
//   --deadline-frac=F  give every online request a deadline of F mean
//                      FIFO service times and shed requests whose ETA is
//                      infeasible (enables admission control)
//   --admission[=N]    admission control: shed on estimator-infeasible
//                      deadlines, and past a queue depth of N when given
//   --breaker          arm the drive health circuit breaker for the
//                      online pass (drive/health_drive.h)
//   --fleet=N          run a fleet serving pass (fleet/fleet_server.h): N
//                      single-cartridge libraries of the chosen drive
//                      family, the same workload size arriving over the
//                      logical segment space, each request routed to the
//                      replica with the lowest estimated service time.
//                      Honors --fault-profile and --breaker (per library).
//   --replicas=K       copies of every logical segment, on distinct
//                      libraries (default 1; requires K <= N)
//   --placement=P      replica placement policy: round-robin|random|
//                      weighted (default round-robin)
//   --optimize-layout  treat the batch as workload heat, run the
//                      tail-anchored PlacementOptimizer (layout/), and
//                      compare the schedule estimate under the proposed
//                      layout against the current one (docs/placement.md)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/drive/tracing_drive.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/local_search.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sched/step_planner.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/layout/heat_map.h"
#include "serpentine/layout/placement.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/pipeline.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/tape/locate_cache.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/workload/trace_io.h"

using namespace serpentine;

namespace {

struct Args {
  std::string algorithm = "loss";
  std::string drive = "dlt4000";
  int32_t tape_seed = 1;
  int32_t seed = 1;
  tape::SegmentId initial = 0;
  int64_t random_n = 0;
  bool from_stdin = false;
  bool improve = false;
  bool rewind = false;
  bool quiet = false;
  bool explain = false;
  std::string workload_path;
  std::string fault_profile;  // empty = no fault execution pass
  int32_t fault_seed = 0;     // 0 = keep the profile's own seed
  std::string trace_out;        // Chrome trace_event JSON output
  std::string metrics_out;      // metrics snapshot JSON output
  int64_t pipeline_batches = 0;  // 0 = no pipelined pass
  double online_rate = 0.0;      // arrivals/hour; 0 = no online pass
  double deadline_frac = 0.0;    // deadlines in mean FIFO service times
  bool admission = false;
  int64_t admission_depth = 0;   // 0 = feasibility shedding only
  bool breaker = false;
  int64_t fleet_libraries = 0;   // 0 = no fleet pass
  int64_t fleet_replicas = 1;
  std::string placement = "round-robin";
  bool optimize_layout = false;
  std::vector<tape::SegmentId> segments;
};

const char* StepKindName(sched::StepKind kind) {
  switch (kind) {
    case sched::StepKind::kLocate:
      return "locate";
    case sched::StepKind::kStream:
      return "stream";
    case sched::StepKind::kFromPass:
      return "from-pass";
  }
  return "?";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--algorithm=A] [--drive=D] [--tape-seed=N] "
               "[--initial=SEG] [--random=N] [--seed=N] [--stdin] "
               "[--workload=FILE] [--improve] [--rewind] [--explain] "
               "[--quiet] [--fault-profile=none|light|heavy|FILE] "
               "[--fault-seed=N] [--trace=FILE] [--metrics-json=FILE] "
               "[--pipeline=N] [--online-rate=R] [--deadline-frac=F] "
               "[--admission[=N]] [--breaker] [--fleet=N] [--replicas=K] "
               "[--placement=round-robin|random|weighted] "
               "[--optimize-layout] [segment ...]\n",
               argv0);
  return 2;
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    *value = nullptr;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--algorithm", &v) && v) {
      args.algorithm = v;
    } else if (ParseFlag(argv[i], "--drive", &v) && v) {
      args.drive = v;
    } else if (ParseFlag(argv[i], "--tape-seed", &v) && v) {
      args.tape_seed = std::atoi(v);
    } else if (ParseFlag(argv[i], "--seed", &v) && v) {
      args.seed = std::atoi(v);
    } else if (ParseFlag(argv[i], "--initial", &v) && v) {
      args.initial = std::atoll(v);
    } else if (ParseFlag(argv[i], "--random", &v) && v) {
      args.random_n = std::atoll(v);
    } else if (ParseFlag(argv[i], "--stdin", &v) && !v) {
      args.from_stdin = true;
    } else if (ParseFlag(argv[i], "--workload", &v) && v) {
      args.workload_path = v;
    } else if (ParseFlag(argv[i], "--fault-profile", &v) && v) {
      args.fault_profile = v;
    } else if (ParseFlag(argv[i], "--fault-seed", &v) && v) {
      args.fault_seed = std::atoi(v);
    } else if (ParseFlag(argv[i], "--trace", &v) && v) {
      args.trace_out = v;
    } else if (ParseFlag(argv[i], "--metrics-json", &v) && v) {
      args.metrics_out = v;
    } else if (ParseFlag(argv[i], "--pipeline", &v) && v) {
      args.pipeline_batches = std::atoll(v);
    } else if (ParseFlag(argv[i], "--online-rate", &v) && v) {
      args.online_rate = std::atof(v);
    } else if (ParseFlag(argv[i], "--deadline-frac", &v) && v) {
      args.deadline_frac = std::atof(v);
    } else if (ParseFlag(argv[i], "--admission", &v)) {
      args.admission = true;
      if (v != nullptr) args.admission_depth = std::atoll(v);
    } else if (ParseFlag(argv[i], "--breaker", &v) && !v) {
      args.breaker = true;
    } else if (ParseFlag(argv[i], "--fleet", &v) && v) {
      args.fleet_libraries = std::atoll(v);
    } else if (ParseFlag(argv[i], "--replicas", &v) && v) {
      args.fleet_replicas = std::atoll(v);
    } else if (ParseFlag(argv[i], "--placement", &v) && v) {
      args.placement = v;
    } else if (ParseFlag(argv[i], "--optimize-layout", &v) && !v) {
      args.optimize_layout = true;
    } else if (ParseFlag(argv[i], "--explain", &v) && !v) {
      args.explain = true;
    } else if (ParseFlag(argv[i], "--improve", &v) && !v) {
      args.improve = true;
    } else if (ParseFlag(argv[i], "--rewind", &v) && !v) {
      args.rewind = true;
    } else if (ParseFlag(argv[i], "--quiet", &v) && !v) {
      args.quiet = true;
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else {
      args.segments.push_back(std::atoll(argv[i]));
    }
  }

  tape::TapeParams params;
  tape::DriveTimings timings;
  if (args.drive == "dlt4000") {
    params = tape::Dlt4000TapeParams();
    timings = tape::Dlt4000Timings();
  } else if (args.drive == "dlt7000") {
    params = tape::Dlt7000TapeParams();
    timings = tape::Dlt7000Timings();
  } else if (args.drive == "ibm3590") {
    params = tape::Ibm3590TapeParams();
    timings = tape::Ibm3590Timings();
  } else {
    std::fprintf(stderr, "unknown drive: %s\n", args.drive.c_str());
    return 2;
  }

  auto entry = sched::Registry::Default().Resolve(args.algorithm);
  if (!entry.ok()) {
    std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
    return 2;
  }

  tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(params, args.tape_seed), timings);
  const tape::TapeGeometry& g = model.geometry();

  if (args.from_stdin) {
    char line[64];
    while (std::fgets(line, sizeof(line), stdin) != nullptr) {
      if (line[0] == '\n' || line[0] == '#') continue;
      args.segments.push_back(std::atoll(line));
    }
  }
  if (args.random_n > 0) {
    Lrand48 rng(args.seed);
    for (int64_t i = 0; i < args.random_n; ++i) {
      args.segments.push_back(rng.NextBounded(g.total_segments()));
    }
  }

  std::vector<sched::Request> requests;
  requests.reserve(args.segments.size());
  for (tape::SegmentId s : args.segments)
    requests.push_back(sched::Request{s, 1});
  if (!args.workload_path.empty()) {
    auto trace = workload::LoadTrace(args.workload_path);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 1;
    }
    requests.insert(requests.end(), trace->begin(), trace->end());
  }
  if (requests.empty()) {
    std::fprintf(stderr, "no requests (pass segments, --stdin, --workload, "
                         "or --random=N)\n");
    return Usage(argv[0]);
  }

  // Observability: install the ambient recorder/registry before planning
  // so scheduler-build spans and counters land in the outputs. Requesting
  // either output also forces an execution pass below (the timeline comes
  // from running the schedule, not estimating it).
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  if (!args.trace_out.empty()) obs::TraceRecorder::SetActive(&recorder);
  if (!args.metrics_out.empty()) obs::MetricsRegistry::SetActive(&registry);

  // One locate cache for the whole planning session: scheduling, Or-opt,
  // and both estimates below share each pair's single plan.
  tape::CachedLocateModel cached(
      model, static_cast<int64_t>(requests.size()) * 16);
  auto schedule = (*entry)->build(cached, args.initial, requests,
                                  (*entry)->options);
  if (!schedule.ok()) {
    std::fprintf(stderr, "scheduling failed: %s\n",
                 schedule.status().ToString().c_str());
    return 1;
  }
  if (args.improve) sched::ImproveSchedule(cached, &schedule.value());

  sched::EstimateOptions estimate_options;
  estimate_options.rewind_at_end = args.rewind;

  double scheduled =
      sched::EstimateScheduleSeconds(cached, *schedule, estimate_options);
  if (!schedule->full_tape_scan) {
    // Walk the order with the estimator's own step rule: each request is a
    // locate, a stream through a short forward gap, or a delivery from the
    // span the pass already read. The printed legs must sum to the
    // estimate, or the table would describe a different schedule.
    if (!args.quiet) {
      std::printf(
          "# step  segment  track/sec  kind       locate_s   read_s%s\n",
          args.explain ? "  case                scan_s  leg_read_s" : "");
    }
    sched::StepPlanner planner(cached, args.initial,
                               estimate_options.include_reads);
    double locate_seconds = 0.0;
    double read_seconds = 0.0;
    int step_number = 0;
    for (const sched::Request& r : schedule->order) {
      const tape::SegmentId head = planner.head();
      const sched::Step step = planner.Next(r);
      locate_seconds += step.locate_seconds;
      read_seconds += step.read_seconds;
      if (args.quiet) continue;
      tape::Coord c = g.ToCoord(r.segment);
      std::printf("%6d %8lld %6d/%-3d %-9s %9.2f %8.2f", ++step_number,
                  static_cast<long long>(r.segment), c.track,
                  c.physical_section, StepKindName(step.kind),
                  step.locate_seconds, step.read_seconds);
      if (args.explain && step.kind == sched::StepKind::kLocate) {
        auto b = model.ExplainLocate(head, r.segment);
        std::printf("  %-19s %6.1f %11.1f", tape::LocateCaseName(b.locate_case),
                    b.scan_seconds, b.read_seconds);
      }
      std::printf("\n");
    }
    const double rewind_seconds =
        estimate_options.rewind_at_end ? cached.RewindSeconds(planner.head())
                                       : 0.0;
    const double walked = locate_seconds + read_seconds + rewind_seconds;
    if (std::abs(walked - scheduled) > 1e-6) {
      std::fprintf(stderr,
                   "step legs sum to %.9f s but the estimate is %.9f s\n",
                   walked, scheduled);
      return 1;
    }
  }

  auto fifo =
      sched::BuildSchedule(cached, args.initial, requests,
                           sched::Algorithm::kFifo);
  double fifo_s =
      sched::EstimateScheduleSeconds(cached, *fifo, estimate_options);
  std::printf("# %zu requests on %s (tape seed %d), algorithm %s%s\n",
              requests.size(), args.drive.c_str(), args.tape_seed,
              args.algorithm.c_str(), args.improve ? "+or-opt" : "");
  std::printf("# estimated execution: %.1f s (%.2f h), %.1f s per request\n",
              scheduled, scheduled / 3600.0, scheduled / requests.size());
  std::printf("# fifo baseline:       %.1f s, speedup %.2fx\n", fifo_s,
              fifo_s / scheduled);

  if (args.optimize_layout) {
    // The batch doubles as the workload sample: its heat trains the
    // optimizer, and the same batch is re-scheduled under the proposed
    // layout to show what re-placement buys this traffic.
    layout::HeatMap heat(g.total_segments());
    heat.RecordBatch(requests);
    layout::PlacementOptimizer optimizer(model);
    layout::OptimizerStats stats;
    layout::Placement proposed = optimizer.Optimize(heat, &stats);
    auto remapped = proposed.RemapBatch(requests);
    auto replaced = (*entry)->build(cached, args.initial,
                                    std::move(remapped), (*entry)->options);
    if (!replaced.ok()) {
      std::fprintf(stderr, "re-placed scheduling failed: %s\n",
                   replaced.status().ToString().c_str());
      return 1;
    }
    if (args.improve) sched::ImproveSchedule(cached, &replaced.value());
    double replaced_s =
        sched::EstimateScheduleSeconds(cached, *replaced, estimate_options);
    std::printf(
        "# layout optimization: %lld hot groups, %lld moved, %lld cap "
        "relaxations, hot-set goodness %.1f -> %.1f s\n",
        static_cast<long long>(stats.hot_groups),
        static_cast<long long>(stats.moved_groups),
        static_cast<long long>(stats.wear_relaxations),
        stats.hot_goodness_before, stats.hot_goodness_after);
    std::printf("# re-placed estimate:  %.1f s, %.2fx vs current layout\n",
                replaced_s, scheduled / replaced_s);
  }

  if (args.pipeline_batches > 0) {
    // Contiguous arrival-order split; the last batch absorbs the remainder.
    int64_t nb = std::min<int64_t>(args.pipeline_batches,
                                   static_cast<int64_t>(requests.size()));
    std::vector<std::vector<sched::Request>> batches(nb);
    size_t per = requests.size() / nb;
    size_t extra = requests.size() % nb;
    size_t at = 0;
    for (int64_t b = 0; b < nb; ++b) {
      size_t take = per + (static_cast<size_t>(b) < extra ? 1 : 0);
      batches[b].assign(requests.begin() + at, requests.begin() + at + take);
      at += take;
    }
    // Builds run on a worker thread against the planning cache while the
    // (model-timed) drive executes on this thread against the raw model —
    // distinct objects, so the overlap is race-free.
    auto builder = [&](int, tape::SegmentId initial,
                       std::vector<sched::Request> batch)
        -> StatusOr<sched::Schedule> {
      auto s =
          (*entry)->build(cached, initial, std::move(batch), (*entry)->options);
      if (s.ok() && args.improve) sched::ImproveSchedule(cached, &s.value());
      return s;
    };
    sim::PipelineOptions popts;
    popts.estimate = estimate_options;
    drive::ModelDrive pdrive(model, args.initial);
    auto piped = sim::RunPipelinedBatches(pdrive, batches, builder, popts);
    if (!piped.ok()) {
      std::fprintf(stderr, "pipelined execution failed: %s\n",
                   piped.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "# pipelined %lld batches: %.3f s scheduling CPU, %.1f s drive time\n",
        static_cast<long long>(nb), piped->build_wall_seconds,
        piped->totals.total_seconds);
    std::printf(
        "#   makespan %.3f s serial -> %.3f s pipelined "
        "(%.3f s of compute hidden, %d/%lld prefetched)\n",
        piped->serial_makespan_seconds, piped->pipelined_makespan_seconds,
        piped->overlap_seconds(), piped->prefetched,
        static_cast<long long>(nb - 1));
  }

  bool online_pass = args.online_rate > 0.0 || args.deadline_frac > 0.0 ||
                     args.admission || args.breaker;
  if (online_pass) {
    // Online serving: the same workload size arriving as a Poisson stream
    // (the batch fixes the load, not the request identities — the server
    // draws its own segments from --seed) served by the chosen algorithm
    // over the full drive stack, with admission control, deadlines, and
    // the drive health breaker as requested.
    sim::OnlineServerConfig config;
    config.arrival_rate_per_hour =
        args.online_rate > 0.0 ? args.online_rate : 60.0;
    config.total_requests = static_cast<int64_t>(requests.size());
    config.algorithm = (*entry)->algorithm;
    config.scheduler_options = (*entry)->options;
    config.seed = args.seed;
    if (!args.fault_profile.empty()) {
      auto profile = drive::LoadFaultProfile(args.fault_profile);
      if (!profile.ok()) {
        std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
        return 2;
      }
      if (args.fault_seed != 0) profile->seed = args.fault_seed;
      config.faults = *profile;
    }
    if (args.deadline_frac > 0.0) {
      config.deadline_seconds =
          args.deadline_frac * fifo_s / static_cast<double>(requests.size());
    }
    config.admission.enabled = args.admission || args.deadline_frac > 0.0;
    config.admission.max_queue_depth = args.admission_depth;
    config.breaker_enabled = args.breaker;
    auto online = sim::RunOnlineServer(model, config);
    if (!online.ok()) {
      std::fprintf(stderr, "online serving failed: %s\n",
                   online.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "# online serving @ %.0f req/h: %lld arrivals, %lld admitted, "
        "%lld shed, %lld completed, %lld failed\n",
        config.arrival_rate_per_hour,
        static_cast<long long>(online->arrivals),
        static_cast<long long>(online->admitted),
        static_cast<long long>(online->shed),
        static_cast<long long>(online->completed),
        static_cast<long long>(online->failed));
    std::printf(
        "#   response p99 %.1f s (mean %.1f s, max %.1f s), utilization "
        "%.2f, throughput %.1f/h\n",
        online->p99_response_seconds, online->mean_response_seconds,
        online->max_response_seconds, online->utilization,
        online->throughput_per_hour);
    if (config.deadline_seconds <
        std::numeric_limits<double>::infinity()) {
      std::printf("#   deadline %.0f s per request: %lld missed, %lld "
                  "shed as infeasible\n",
                  config.deadline_seconds,
                  static_cast<long long>(online->deadline_missed),
                  static_cast<long long>(online->shed));
    }
    if (config.breaker_enabled) {
      std::printf("#   breaker: %lld fast fails, %zu transitions, %.1f s "
                  "waiting out cooldowns\n",
                  static_cast<long long>(online->breaker_fast_fails),
                  online->breaker_transitions.size(),
                  online->breaker_wait_seconds);
    }
  }

  if (args.fleet_libraries > 0) {
    // Fleet serving: N single-cartridge libraries, the same workload size
    // arriving over the logical segment space, routed per request to the
    // cheapest replica.
    auto policy = fleet::PlacementPolicyFromString(args.placement);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
      return 2;
    }
    fleet::UniformFleet libraries(params, timings,
                                  static_cast<int>(args.fleet_libraries),
                                  /*cartridges_per_library=*/1,
                                  args.tape_seed);
    fleet::FleetConfig config;
    config.serving.arrival_rate_per_hour =
        args.online_rate > 0.0 ? args.online_rate : 60.0;
    config.serving.total_requests = static_cast<int64_t>(requests.size());
    config.serving.algorithm = (*entry)->algorithm;
    config.serving.scheduler_options = (*entry)->options;
    config.serving.seed = args.seed;
    if (!args.fault_profile.empty()) {
      auto profile = drive::LoadFaultProfile(args.fault_profile);
      if (!profile.ok()) {
        std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
        return 2;
      }
      if (args.fault_seed != 0) profile->seed = args.fault_seed;
      config.serving.faults = *profile;
    }
    config.serving.breaker_enabled = args.breaker;
    config.placement.policy = *policy;
    config.placement.replication = static_cast<int>(args.fleet_replicas);
    config.placement.seed = args.seed;
    auto result = fleet::RunFleet(libraries.fleet(), config);
    if (!result.ok()) {
      std::fprintf(stderr, "fleet serving failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "# fleet serving: %lld libraries, replication %lld, placement %s\n",
        static_cast<long long>(args.fleet_libraries),
        static_cast<long long>(args.fleet_replicas),
        fleet::PlacementPolicyName(*policy));
    std::printf(
        "#   %lld arrivals, %lld completed, %lld failed, %lld shed, "
        "%lld failovers\n",
        static_cast<long long>(result->total.arrivals),
        static_cast<long long>(result->total.completed),
        static_cast<long long>(result->total.failed),
        static_cast<long long>(result->total.shed),
        static_cast<long long>(result->failovers));
    std::printf(
        "#   response p99 %.1f s (mean %.1f s), fleet utilization %.2f\n",
        result->total.p99_response_seconds,
        result->total.mean_response_seconds, result->total.utilization);
    std::printf("#   routed per library:");
    for (int64_t n : result->routed_per_library) {
      std::printf(" %lld", static_cast<long long>(n));
    }
    std::printf("\n");
  }

  bool observing = !args.trace_out.empty() || !args.metrics_out.empty();
  if (!args.fault_profile.empty() || observing) {
    std::unique_ptr<drive::FaultInjector> injector;
    int32_t fault_seed = 0;
    if (!args.fault_profile.empty()) {
      auto profile = drive::LoadFaultProfile(args.fault_profile);
      if (!profile.ok()) {
        std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
        return 2;
      }
      if (args.fault_seed != 0) profile->seed = args.fault_seed;
      injector = std::make_unique<drive::FaultInjector>(*profile);
      fault_seed = profile->seed;
    }
    sim::RecoveryOptions recovery;
    recovery.estimate.rewind_at_end = args.rewind;
    // The execution stack: ideal drive, fault process (a passthrough when
    // no profile is set), op meter, tracer outermost so the timeline sees
    // what execution experienced. Schedule repairs still consult the
    // cached believed model.
    drive::ModelDrive base(model);
    drive::FaultDrive faulty(&base, injector.get());
    drive::MeteredDrive metered(&faulty);
    drive::TracingDrive traced(&metered);
    sim::RecoveringExecutor executor(traced, cached, recovery);
    sim::RecoveringExecutionResult res = executor.Execute(*schedule);
    if (!args.fault_profile.empty()) {
      std::printf("# fault execution (%s, seed %d): %.1f s "
                  "(%.1f s recovery, %.2fx estimate)\n",
                  args.fault_profile.c_str(), fault_seed, res.total_seconds,
                  res.recovery_seconds,
                  scheduled > 0 ? res.total_seconds / scheduled : 0.0);
      std::printf("#   serviced %lld/%zu, transient %lld, overshoot %lld, "
                  "reset %lld, permanent %lld, retries %lld, reschedules "
                  "%lld, abandoned %zu\n",
                  static_cast<long long>(res.requests_serviced),
                  schedule->order.size(),
                  static_cast<long long>(res.transient_read_errors),
                  static_cast<long long>(res.locate_overshoots),
                  static_cast<long long>(res.drive_resets),
                  static_cast<long long>(res.permanent_errors),
                  static_cast<long long>(res.retries),
                  static_cast<long long>(res.reschedules),
                  res.abandoned_segments.size());
      const drive::DriveMetrics& m = metered.metrics();
      std::printf("#   drive ops: %lld locates, %lld reads, %lld rewinds "
                  "(%lld segments transferred), busy %.1f s\n",
                  static_cast<long long>(m.locates),
                  static_cast<long long>(m.reads),
                  static_cast<long long>(m.rewinds),
                  static_cast<long long>(m.segments_read), m.busy_seconds());
    }
    if (!args.metrics_out.empty()) {
      metered.metrics().PublishTo(registry, "drive");
    }
  }

  if (!args.trace_out.empty()) {
    auto status = recorder.WriteJson(args.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if (!args.quiet) {
      std::printf("# wrote %lld trace events to %s\n",
                  static_cast<long long>(recorder.event_count()),
                  args.trace_out.c_str());
    }
  }
  if (!args.metrics_out.empty()) {
    auto status = registry.WriteJson(args.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if (!args.quiet) {
      std::printf("# wrote metrics snapshot to %s\n", args.metrics_out.c_str());
    }
  }
  return 0;
}
