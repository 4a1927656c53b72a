#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

/// Spans beyond this many are summed but not kept as trace events, so the
/// per-operation spans of store-rw keep the trace file small.
constexpr int64_t kMaxTraceEvents = 100000;

const std::vector<double> kNoDurations;

/// Set-up repeats: cheap set-ups run many times so their median is steady.
constexpr size_t kMinSetups = 5;
constexpr double kSetupBudgetSeconds = 2.0;

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Min(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return *std::min_element(values.begin(), values.end());
}

double OrderStatistic(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(q * (values.size() - 1))];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors.push_back(what);
}

const std::vector<double>& Spans::durations(const std::string& name) const {
  auto it = durations_.find(name);
  return it == durations_.end() ? kNoDurations : it->second;
}

double Spans::total(const std::string& name) const {
  const std::vector<double>& d = durations(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

serpentine::Status Spans::WriteJson(const std::string& path) const {
  return recorder_.WriteJson(path);
}

void Spans::Record(const char* name, double wall_start, double wall_end,
                   double cpu_seconds) {
  durations_[name].push_back(cpu_seconds);
  if (events_ < kMaxTraceEvents) {
    recorder_.CompleteEvent(serpentine::obs::TraceClock::kWall, "perfbench",
                            name, wall_start, wall_end);
    ++events_;
  }
}

void BestTimes::Add(size_t call, double seconds) {
  if (call >= best_.size()) best_.resize(call + 1, 0.0);
  if (best_[call] == 0.0 || seconds < best_[call]) best_[call] = seconds;
}

double BestTimes::Best(size_t call) const {
  return call < best_.size() ? best_[call] : 0.0;
}

double BestTimes::Total() const {
  return std::accumulate(best_.begin(), best_.end(), 0.0);
}

double RoundTimes::trace_overhead() const {
  double base = Median(untraced);
  return base > 0.0 ? Median(traced) / base : 0.0;
}

void RunOnCpuSlot(int slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort
}

void RunRounds(const Args& args, Spans& spans, int min_rounds,
               Report& report,
               const std::function<double(int index, bool traced)>& round) {
  RoundTimes& times = report.round_times;
  double start = Now();
  for (int i = 0;; ++i) {
    bool traced = args.trace && i % 2 == 1;
    RunOnCpuSlot(i);
    spans.set_recording(traced);
    double seconds = round(i, traced);
    spans.set_recording(false);
    (traced ? times.traced : times.untraced).push_back(seconds);
    report.rounds = i + 1;
    bool enough = report.rounds >= min_rounds &&
                  (!args.trace || times.traced.size() >= 2);
    if (enough && Now() - start >= args.seconds) break;
  }
}

double MedianSetupSeconds(const std::function<void()>& setup) {
  std::vector<double> seconds;
  double begin = Now();
  while (seconds.size() < kMinSetups || Now() - begin < kSetupBudgetSeconds) {
    RunOnCpuSlot(static_cast<int>(seconds.size()));
    double start = CpuNow();
    setup();
    seconds.push_back(CpuNow() - start);
  }
  return Median(seconds);
}

}  // namespace perfbench
