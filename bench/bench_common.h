// Shared helpers for the figure-reproduction benches.
#ifndef SERPENTINE_BENCH_BENCH_COMMON_H_
#define SERPENTINE_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/drive/tracing_drive.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/env.h"
#include "serpentine/util/table.h"

namespace serpentine::bench {

/// Short name of the active trial scale, for banners and timing records.
inline const char* ScaleName() {
  switch (GetBenchScale()) {
    case BenchScale::kFull:
      return "full";
    case BenchScale::kSmoke:
      return "smoke";
    case BenchScale::kDefault:
      break;
  }
  return "default";
}

/// Appends machine-readable timing records, one JSON object per line, to
/// the file named by SERPENTINE_BENCH_JSON; a no-op when the variable is
/// unset. Each record carries the figure, the point's label/N/trials, the
/// wall-clock seconds, and the thread count and scale it ran under, so
/// runs at different thread counts can be diffed point by point (the
/// simulated statistics must match bit for bit; only wall_seconds moves).
class TimingRecorder {
 public:
  explicit TimingRecorder(const char* figure)
      : figure_(figure), start_(std::chrono::steady_clock::now()) {
    const char* path = std::getenv("SERPENTINE_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') out_ = std::fopen(path, "a");
  }

  ~TimingRecorder() {
    if (out_ == nullptr) return;
    Write("_total", 0, 0,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
    std::fclose(out_);
  }

  TimingRecorder(const TimingRecorder&) = delete;
  TimingRecorder& operator=(const TimingRecorder&) = delete;

  /// Records one point's wall-clock time. `extra` holds further JSON
  /// members, each with a leading comma (e.g. ",\"estimate_s\":1.5").
  void Record(const char* label, int n, int64_t trials, double wall_seconds,
              const std::string& extra = "") {
    if (out_ != nullptr) Write(label, n, trials, wall_seconds, extra);
  }

 private:
  void Write(const char* label, int n, int64_t trials, double wall_seconds,
             const std::string& extra = "") {
    std::fprintf(out_,
                 "{\"figure\":\"%s\",\"label\":\"%s\",\"n\":%d,"
                 "\"trials\":%lld,\"wall_seconds\":%.6f,\"threads\":%d,"
                 "\"scale\":\"%s\"%s}\n",
                 figure_, label, n, static_cast<long long>(trials),
                 wall_seconds, ResolveThreadCount(0), ScaleName(),
                 extra.c_str());
  }

  const char* figure_;
  std::FILE* out_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Opt-in observability for a bench run: when SERPENTINE_TRACE and/or
/// SERPENTINE_METRICS_JSON name output files, installs an ambient
/// TraceRecorder / MetricsRegistry for the session and writes them out on
/// destruction. With neither variable set this is inert and the bench
/// runs on the disabled (near-free) path. Construct one at the top of
/// main() in benches whose trace volume is bounded (per-op spans scale
/// with drive ops — see docs/observability.md).
class ObsSession {
 public:
  ObsSession() {
    const char* trace = std::getenv("SERPENTINE_TRACE");
    if (trace != nullptr && trace[0] != '\0') {
      trace_path_ = trace;
      obs::TraceRecorder::SetActive(&recorder_);
    }
    const char* metrics = std::getenv("SERPENTINE_METRICS_JSON");
    if (metrics != nullptr && metrics[0] != '\0') {
      metrics_path_ = metrics;
      obs::MetricsRegistry::SetActive(&registry_);
    }
  }

  ~ObsSession() {
    if (!trace_path_.empty()) {
      auto status = recorder_.WriteJson(trace_path_);
      if (status.ok()) {
        std::printf("wrote %lld trace events to %s\n",
                    static_cast<long long>(recorder_.event_count()),
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
    if (!metrics_path_.empty()) {
      auto status = registry_.WriteJson(metrics_path_);
      if (status.ok()) {
        std::printf("wrote metrics snapshot to %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
      }
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  obs::TraceRecorder recorder_;
  obs::MetricsRegistry registry_;
  std::string trace_path_;
  std::string metrics_path_;
};

/// The tape the experiments run on ("tape A"): DLT4000 geometry, seed 1.
inline tape::Dlt4000LocateModel MakeTapeAModel() {
  return tape::Dlt4000LocateModel(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
}

/// A second cartridge ("tape B") for the wrong-key-points experiment.
inline tape::Dlt4000LocateModel MakeTapeBModel() {
  return tape::Dlt4000LocateModel(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 2),
      tape::Dlt4000Timings());
}

/// A ready-to-run drive stack over its own model copy:
/// TracingDrive(MeteredDrive(ModelDrive(model))). Hoists the model/tape
/// boilerplate every drive-consuming bench repeats — construct one, hand
/// drive() to an executor, read metrics() after. The tracing layer emits
/// per-op spans only when an ObsSession (or other ambient recorder) is
/// active; otherwise it costs one branch per op.
class BenchDriveStack {
 public:
  explicit BenchDriveStack(tape::Dlt4000LocateModel model)
      : model_(std::move(model)),
        base_(model_),
        metered_(&base_),
        tracing_(&metered_) {}

  // base_/metered_/tracing_ hold pointers into this object; copying or
  // moving would leave them dangling. Factory returns rely on guaranteed
  // elision.
  BenchDriveStack(const BenchDriveStack&) = delete;
  BenchDriveStack& operator=(const BenchDriveStack&) = delete;

  drive::Drive& drive() { return tracing_; }
  drive::MeteredDrive& metered() { return metered_; }
  drive::TracingDrive& tracing() { return tracing_; }
  const tape::Dlt4000LocateModel& model() const { return model_; }

 private:
  tape::Dlt4000LocateModel model_;
  drive::ModelDrive base_;
  drive::MeteredDrive metered_;
  drive::TracingDrive tracing_;
};

/// The standard bench drives, ready to execute schedules on tape A/B.
inline BenchDriveStack MakeTapeADrive() {
  return BenchDriveStack(MakeTapeAModel());
}
inline BenchDriveStack MakeTapeBDrive() {
  return BenchDriveStack(MakeTapeBModel());
}

/// Prints the figure banner, the active trial scale, and the thread count.
inline void PrintHeader(const char* figure, const char* description) {
  const char* scale = ScaleName();
  if (GetBenchScale() == BenchScale::kFull) {
    scale = "full (paper trial counts)";
  }
  std::printf("== %s ==\n%s\n(trial scale: %s; set SERPENTINE_SCALE=full "
              "for paper counts; %d worker threads, set SERPENTINE_THREADS "
              "to change)\n\n",
              figure, description, scale, ResolveThreadCount(0));
}

/// Trials for one point of a figure, scaled from the paper's counts.
inline int64_t TrialsFor(int n) {
  return ScaledTrials(sim::PaperTrials(n));
}

/// Runs one figure-4/5-style sweep: mean seconds per locate for each
/// algorithm at each schedule length. OPT is included only up to the
/// paper's 12-request ceiling; READ appears as the constant full-pass
/// bound. Per-point wall-clock times go to SERPENTINE_BENCH_JSON.
inline void RunPerLocateFigure(const char* figure, bool start_at_bot,
                               int32_t seed) {
  tape::Dlt4000LocateModel model = MakeTapeAModel();
  TimingRecorder recorder(figure);

  // The figure's algorithms come from the shared scheduler registry, in
  // the paper's plotting order.
  const sched::Registry& registry = sched::Registry::Default();
  std::vector<const sched::RegistryEntry*> entries;
  for (const char* name :
       {"fifo", "sort", "scan", "weave", "sltf", "loss", "opt", "read"}) {
    const sched::RegistryEntry* entry = registry.Find(name);
    if (entry != nullptr) entries.push_back(entry);
  }

  Table means;
  Table stds;
  std::vector<std::string> header = {"N", "trials"};
  for (const auto* e : entries) header.push_back(e->label);
  means.SetHeader(header);
  stds.SetHeader(header);

  for (int n : sim::PaperScheduleLengths()) {
    std::vector<std::string> mean_row = {Table::Int(n)};
    std::vector<std::string> std_row = {Table::Int(n)};
    int64_t trials = TrialsFor(n);
    mean_row.push_back(Table::Int(trials));
    std_row.push_back(Table::Int(trials));
    for (const auto* e : entries) {
      if (e->algorithm == sched::Algorithm::kOpt && n > 12) {
        mean_row.push_back("-");
        std_row.push_back("-");
        continue;
      }
      int64_t point_trials =
          e->algorithm == sched::Algorithm::kOpt
              ? ScaledTrials(sim::PaperTrialsOpt(n))
              : trials;
      auto begin = std::chrono::steady_clock::now();
      sim::PointStats p = sim::SimulatePoint(
          model, model, e->algorithm, n, point_trials, start_at_bot, seed);
      recorder.Record(
          e->label.c_str(), n, point_trials,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        begin)
              .count());
      mean_row.push_back(Table::Num(p.mean_seconds_per_locate, 2));
      std_row.push_back(Table::Num(p.std_total_seconds / n, 2));
    }
    means.AddRow(mean_row);
    stds.AddRow(std_row);
  }
  std::printf("Mean seconds per locate (schedule execution time / N):\n");
  means.Print();
  std::printf(
      "\nStandard deviation of the per-locate time across trials "
      "(the paper reports mean and std for every point):\n");
  stds.Print();
}

}  // namespace serpentine::bench

#endif  // SERPENTINE_BENCH_BENCH_COMMON_H_
