// Fleet extension: multi-library serving with replica placement and the
// service-time router. Sweeps libraries x replication x placement policy
// and reports the routed load split, failovers, cartridge switches, and
// the p99 response per point; a second section measures robot contention
// in a multi-drive store::TapeLibrary (one robot arm shared by N drives).
//
// Machine-readable output: one JSONL record per point to
// SERPENTINE_BENCH_JSON — figure "fleet" for the serving sweep (extras:
// libraries, replication, placement, p99_response_seconds, utilization,
// failovers, cartridge_mounts, mount_seconds) and figure "fleet-robot"
// for the contention section (drives, robot_exchanges,
// robot_wait_seconds, busy_seconds); both schemas are enforced by
// tools/validate_bench_json.py.
//
// Exit status is nonzero when an invariant breaks: request conservation,
// routed counts that do not sum to the arrivals, round-robin placement
// drifting off balance, a 1-library/replication-1 fleet disagreeing with
// RunOnlineServer (the determinism pin, checked field for field), or a
// single-drive library reporting robot waits.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/store/tape_library.h"

using namespace serpentine;

namespace {

/// Appends fleet records to SERPENTINE_BENCH_JSON: the TimingRecorder
/// schema plus the per-figure extras validate_bench_json.py requires.
class FleetRecorder {
 public:
  FleetRecorder() {
    const char* path = std::getenv("SERPENTINE_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') out_ = std::fopen(path, "a");
  }
  ~FleetRecorder() {
    if (out_ != nullptr) std::fclose(out_);
  }
  FleetRecorder(const FleetRecorder&) = delete;
  FleetRecorder& operator=(const FleetRecorder&) = delete;

  void RecordFleet(const std::string& label, int n, double wall_seconds,
                   int libraries, int replication, const char* placement,
                   const fleet::FleetResult& r) {
    if (out_ == nullptr) return;
    std::fprintf(
        out_,
        "{\"figure\":\"fleet\",\"label\":\"%s\",\"n\":%d,\"trials\":1,"
        "\"wall_seconds\":%.6f,\"threads\":%d,\"scale\":\"%s\","
        "\"libraries\":%d,\"replication\":%d,\"placement\":\"%s\","
        "\"p99_response_seconds\":%.3f,\"utilization\":%.6f,"
        "\"failovers\":%lld,\"cartridge_mounts\":%lld,"
        "\"mount_seconds\":%.3f}\n",
        label.c_str(), n, wall_seconds, ResolveThreadCount(0),
        bench::ScaleName(), libraries, replication, placement,
        r.total.p99_response_seconds, r.total.utilization,
        static_cast<long long>(r.failovers),
        static_cast<long long>(r.cartridge_mounts), r.mount_seconds);
  }

  void RecordRobot(const std::string& label, int n, double wall_seconds,
                   const store::TapeLibrary& library) {
    if (out_ == nullptr) return;
    std::fprintf(
        out_,
        "{\"figure\":\"fleet-robot\",\"label\":\"%s\",\"n\":%d,"
        "\"trials\":1,\"wall_seconds\":%.6f,\"threads\":%d,\"scale\":"
        "\"%s\",\"drives\":%d,\"robot_exchanges\":%lld,"
        "\"robot_wait_seconds\":%.3f,\"busy_seconds\":%.3f}\n",
        label.c_str(), n, wall_seconds, ResolveThreadCount(0),
        bench::ScaleName(), library.num_drives(),
        static_cast<long long>(library.robot_exchanges()),
        library.robot_wait_seconds(), library.busy_seconds());
  }

 private:
  std::FILE* out_ = nullptr;
};

/// Fields the 1-library pin compares; every one must match exactly.
int ComparePin(const sim::OnlineServerResult& a,
               const sim::OnlineServerResult& b) {
  int diffs = 0;
  diffs += a.arrivals != b.arrivals;
  diffs += a.completed != b.completed;
  diffs += a.failed != b.failed;
  diffs += a.shed != b.shed;
  diffs += a.batches != b.batches;
  diffs += a.drive_busy_seconds != b.drive_busy_seconds;
  diffs += a.makespan_seconds != b.makespan_seconds;
  diffs += a.mean_response_seconds != b.mean_response_seconds;
  diffs += a.p99_response_seconds != b.p99_response_seconds;
  diffs += a.throughput_per_hour != b.throughput_per_hour;
  return diffs;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fleet sweep (multi-library serving)",
      "libraries x replication x placement through the replica router; "
      "plus robot contention in a multi-drive library");

  const int total = static_cast<int>(ScaledTrials(2000, 10, 50, 40));
  FleetRecorder recorder;
  int violations = 0;

  // ---- determinism pin: 1 library == the single-library server ----
  {
    fleet::UniformFleet one(tape::Dlt4000TapeParams(),
                            tape::Dlt4000Timings(), 1,
                            /*cartridges_per_library=*/1, /*first_seed=*/1);
    fleet::FleetConfig config;
    config.serving.arrival_rate_per_hour = 60.0;
    config.serving.total_requests = total;
    auto via_fleet = fleet::RunFleet(one.fleet(), config);
    tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
    auto direct = sim::RunOnlineServer(model, config.serving);
    if (!via_fleet.ok() || !direct.ok()) {
      std::fprintf(stderr, "pin run failed\n");
      return 1;
    }
    int diffs = ComparePin(via_fleet->total, *direct);
    violations += diffs;
    std::printf("determinism pin: 1-library fleet vs RunOnlineServer, %d "
                "field mismatches (must be 0)\n\n",
                diffs);
  }

  // ---- serving sweep ----
  Table table;
  table.SetHeader({"libs", "repl", "placement", "p99 s", "util", "switch",
                   "failover", "routed"});
  const std::vector<int> library_counts = {1, 2, 4};
  const std::vector<fleet::PlacementPolicy> policies = {
      fleet::PlacementPolicy::kRoundRobin, fleet::PlacementPolicy::kRandom,
      fleet::PlacementPolicy::kWeighted};

  for (int libraries : library_counts) {
    for (int replication = 1; replication <= std::min(libraries, 2);
         ++replication) {
      for (fleet::PlacementPolicy policy : policies) {
        fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                                    tape::Dlt4000Timings(), libraries,
                                    /*cartridges_per_library=*/2,
                                    /*first_seed=*/1);
        fleet::FleetConfig config;
        // Scale offered load with the fleet so every library stays busy
        // (one DLT4000 drive saturates near 44 random requests/hour).
        config.serving.arrival_rate_per_hour = 50.0 * libraries;
        config.serving.total_requests = total;
        config.placement.policy = policy;
        config.placement.replication = replication;
        if (policy == fleet::PlacementPolicy::kWeighted) {
          config.placement.weights.resize(libraries);
          for (int l = 0; l < libraries; ++l) {
            config.placement.weights[l] = 1.0 + l;
          }
        }
        config.mount_exchange_seconds = 75.0;

        auto begin = std::chrono::steady_clock::now();
        auto result = fleet::RunFleet(uniform.fleet(), config);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
        if (!result.ok()) {
          std::fprintf(stderr, "fleet %dx%d %s: %s\n", libraries,
                       replication, fleet::PlacementPolicyName(policy),
                       result.status().ToString().c_str());
          return 1;
        }
        const fleet::FleetResult& r = *result;

        // Conservation: every arrival routed exactly once and answered.
        int64_t routed = 0;
        for (int64_t n : r.routed_per_library) routed += n;
        if (routed != r.total.arrivals || r.total.arrivals != total) {
          ++violations;
        }
        if (r.total.shed + r.total.completed + r.total.failed !=
            r.total.arrivals) {
          ++violations;
        }
        // Round-robin placement is balanced to within one segment per
        // library (no library can fill: the catalog defaults to the
        // smallest library's capacity).
        if (policy == fleet::PlacementPolicy::kRoundRobin) {
          int64_t lo = r.placed_per_library[0], hi = r.placed_per_library[0];
          for (int64_t n : r.placed_per_library) {
            lo = std::min(lo, n);
            hi = std::max(hi, n);
          }
          if (hi - lo > 1) ++violations;
        }
        // Failover needs an open breaker; none is armed here.
        if (r.failovers != 0) ++violations;

        std::string routed_split;
        for (size_t i = 0; i < r.routed_per_library.size(); ++i) {
          if (i > 0) routed_split += '/';
          routed_split += std::to_string(r.routed_per_library[i]);
        }
        const char* placement = fleet::PlacementPolicyName(policy);
        std::string label = std::to_string(libraries) + "x" +
                            std::to_string(replication) + "-" + placement;
        recorder.RecordFleet(label, total, wall, libraries, replication,
                             placement, r);
        table.AddRow({std::to_string(libraries), std::to_string(replication),
                      placement, Table::Num(r.total.p99_response_seconds, 0),
                      Table::Num(r.total.utilization, 2),
                      std::to_string(r.cartridge_mounts),
                      std::to_string(r.failovers), routed_split});
      }
    }
  }
  table.Print();
  std::printf(
      "\nExpected: replication lets the router spread hot segments, so "
      "p99 falls as libraries (and replicas) grow at fixed per-library "
      "load; weighted placement skews the routed split toward the "
      "heavier libraries.\n\n");

  // ---- robot contention: N drives, one robot arm ----
  Table robot;
  robot.SetHeader({"drives", "mounts", "exchanges", "robot wait s",
                   "busy s"});
  const int mounts = static_cast<int>(ScaledTrials(640, 10, 40, 16));
  for (int drives : {1, 2, 4}) {
    store::TapeLibrary library(tape::Dlt4000TapeParams(), /*cartridges=*/8,
                               tape::Dlt4000Timings(), {}, /*first_seed=*/1,
                               drives);
    auto begin = std::chrono::steady_clock::now();
    // Round-robin mount-heavy load: every request remounts its drive's
    // bay, so consecutive drives contend for the robot arm.
    for (int i = 0; i < mounts; ++i) {
      int d = i % drives;
      int tape = i % library.num_cartridges();
      if (library.mounted(d) == tape ||
          !library.Mount(d, tape).ok()) {
        continue;  // cartridge busy in another bay this round
      }
      (void)library.LocateTo(d, 1000 + 100 * i);
      (void)library.ReadForward(d, 4);
    }
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
    if (drives == 1 && library.robot_wait_seconds() != 0.0) ++violations;
    recorder.RecordRobot("robot-d" + std::to_string(drives), mounts, wall,
                         library);
    robot.AddRow({std::to_string(drives),
                  std::to_string(library.total_mounts()),
                  std::to_string(library.robot_exchanges()),
                  Table::Num(library.robot_wait_seconds(), 1),
                  Table::Num(library.busy_seconds(), 1)});
  }
  robot.Print();
  std::printf(
      "\nExpected: one drive never waits for the robot; with more drives "
      "sharing the arm, exchange requests overlap and the wait grows.\n");

  std::printf("\ninvariant violations: %d (must be 0)\n", violations);
  return violations == 0 ? 0 : 1;
}
