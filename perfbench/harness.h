// Shared plumbing of the repository benchmark: arguments, the per-run
// report, wall-clock spans around the benchmark's own library calls, and
// the round loop that fills a run's measuring time.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/obs/trace.h"
#include "serpentine/util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  int32_t seed = 1;
  /// Wall seconds of measuring (set-up excluded).
  double seconds = 20.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); "" = nowhere.
  std::string trace_out;
};

/// Host wall clock in seconds (steady, arbitrary epoch).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used (user + system, all threads).
/// Every host-time metric is measured on this clock, not the wall clock,
/// so time spent waiting for a core while other tenants run is left out.
/// Neighbours that share the core's caches or memory still stretch it;
/// BestTimes deals with that. The scheduler runs one worker
/// (perfbench/run.py), so CPU time is the time a request costs the host.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Min(const std::vector<double>& values);
/// The order statistic sim::RunOnlineServer reports as its p99:
/// sorted[floor(q * (n - 1))]. Exact, never interpolated.
double OrderStatistic(std::vector<double> values, double q);
/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Fastest CPU seconds of each of a round's calls, over the rounds that
/// repeat them. End-to-end host metrics are made from these. Host noise
/// on a shared machine is one-sided and does not average out: a
/// neighbour on the same core or memory only ever slows a call, by up to
/// 1.6x, for spells from a second to minutes. Medians of the same calls
/// moved 10-30 % from run to run with the neighbours' load; the fastest
/// sample of a call that repeats every second or so is its cost on a
/// quiet host, and moved a few percent.
class BestTimes {
 public:
  /// Keeps `seconds` if it is the fastest sample of call `call` so far.
  void Add(size_t call, double seconds);
  /// Fastest sample of `call` (0 when it has none).
  double Best(size_t call) const;
  /// Sum of every call's fastest sample: the cost of one quiet round.
  double Total() const;

 private:
  std::vector<double> best_;
};

/// Moves the calling thread to the `slot`-th CPU (modulo the count) of
/// those the process may use when it first calls this. Rounds and
/// set-ups call it with their index, so a run's samples of each call are
/// taken on every CPU in turn. Host slowdowns come per CPU: a CPU whose
/// physical core a neighbour shares runs 1.5x slower for tens of seconds
/// while another runs at full speed, and a thread left where the kernel
/// put it can spend a whole run on the slow one.
void RunOnCpuSlot(int slot);

/// Measured CPU seconds of each round, by kind.
struct RoundTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  /// Median traced round over median untraced round (traced runs only).
  double trace_overhead() const;
};

/// What one workload run reports.
struct Report {
  /// Requests (store-rw: operations) simulated in measured rounds.
  int64_t attempted = 0;
  /// Of those, requests whose library call returned an error Status.
  /// Simulated drive faults are outputs of a successful call, not failures.
  int64_t failed = 0;
  /// Failed correctness checks; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Metric values by name (end-to-end and per-layer).
  std::map<std::string, double> metrics;
  /// Modeled (simulated-time) values, which must repeat bit for bit for a
  /// seed at any thread count.
  std::map<std::string, double> modeled;
  int rounds = 0;
  RoundTimes round_times;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Sets a metric that is a deterministic function of the seed.
  void SetModeled(const std::string& name, double value) {
    metrics[name] = value;
    modeled[name] = value;
  }
};

/// Spans around the benchmark's calls into the library: trace events carry
/// wall-clock stamps, durations are CPU seconds (see CpuNow). The
/// recorder is never installed as the ambient obs::TraceRecorder, so the
/// library's own instrumentation stays on its disabled path and a traced
/// round runs the same library code as an untraced one.
class Spans {
 public:
  /// Recording is off until enabled; Time() measures either way.
  void set_recording(bool on) { recording_ = on; }

  /// Runs `fn`, returns its CPU seconds, and while recording also keeps
  /// a span named `name`.
  template <typename F>
  double Time(const char* name, F&& fn) {
    if (recording_) return Traced(name, std::forward<F>(fn));
    double start = CpuNow();
    std::forward<F>(fn)();
    return CpuNow() - start;
  }

  /// Runs `fn`; only while recording also times it as a span named
  /// `name`. For per-operation calls whose time counts only in traced
  /// rounds, so untraced rounds pay no clock reads for them.
  template <typename F>
  void Trace(const char* name, F&& fn) {
    if (recording_) {
      Traced(name, std::forward<F>(fn));
    } else {
      std::forward<F>(fn)();
    }
  }

  /// CPU-second durations of every recorded span named `name`.
  const std::vector<double>& durations(const std::string& name) const;
  /// Sum of durations(name).
  double total(const std::string& name) const;

  serpentine::Status WriteJson(const std::string& path) const;

 private:
  template <typename F>
  double Traced(const char* name, F&& fn) {
    double wall_start = recorder_.WallSeconds();
    double cpu_start = CpuNow();
    std::forward<F>(fn)();
    double cpu = CpuNow() - cpu_start;
    Record(name, wall_start, recorder_.WallSeconds(), cpu);
    return cpu;
  }
  void Record(const char* name, double wall_start, double wall_end,
              double cpu_seconds);

  serpentine::obs::TraceRecorder recorder_;
  std::map<std::string, std::vector<double>> durations_;
  bool recording_ = false;
  int64_t events_ = 0;
};

/// Calls `round(index, traced)` on CPU slot `index` (see RunOnCpuSlot);
/// each call returns its measured CPU seconds. Stops once args.seconds of
/// wall time have passed and at least `min_rounds` rounds ran; keeps the
/// round times in report.round_times and the count in report.rounds.
/// Untraced runs only run untraced rounds; traced runs alternate untraced
/// and traced rounds, at least two of each (spans record only in the
/// traced ones).
void RunRounds(const Args& args, Spans& spans, int min_rounds,
               Report& report,
               const std::function<double(int index, bool traced)>& round);

/// Runs `setup` at least 5 times and until 2 s have passed, each time on
/// the next CPU slot; returns the median CPU seconds. The last run's
/// effects are what the workload keeps.
double MedianSetupSeconds(const std::function<void()>& setup);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
