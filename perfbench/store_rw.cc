// store-rw: store::TertiaryStore over a 4-cartridge library. Cartridges
// start empty and half of each is written at set-up; then one operation
// per 30 s of library time: 90 % single-segment Zipf reads, 10 % 64-segment
// appends, with a flush every 128 operations.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "serpentine/obs/histogram.h"
#include "serpentine/store/store.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace serpentine;

constexpr int kCartridges = 4;
/// Appends fill about 256k of the ~311k free segments per cartridge.
constexpr int64_t kOps = 160000;
constexpr double kAppendShare = 0.1;
constexpr int64_t kAppendSegments = 64;
constexpr int kObjectsPerCartridge = 20000;
constexpr double kZipfTheta = 0.95;
constexpr double kOpGapSeconds = 30.0;
constexpr int kFlushEvery = 128;

struct Op {
  bool append = false;
  int tape = 0;
  tape::SegmentId segment = 0;
};

/// The store with half of every cartridge written.
std::unique_ptr<store::TertiaryStore> BuildStore(Report& report) {
  store::StoreOptions options;
  options.cartridges_start_empty = true;
  options.cache_segments = 8192;
  auto st = std::make_unique<store::TertiaryStore>(
      options, store::TapeLibrary(tape::Dlt4000TapeParams(), kCartridges,
                                  tape::Dlt4000Timings()));
  for (int t = 0; t < kCartridges; ++t) {
    int64_t half = st->library().model(t).geometry().total_segments() / 2;
    report.Check(st->Append(t, half).ok(), "set-up append failed");
  }
  return st;
}

std::vector<Op> GenerateOps(const store::TertiaryStore& st, int32_t seed) {
  Lrand48 rng(seed);
  std::vector<Op> ops(kOps);
  std::vector<int> reads_per_tape(kCartridges, 0);
  for (Op& op : ops) {
    op.append = rng.NextDouble() < kAppendShare;
    op.tape = static_cast<int>(rng.NextBounded(kCartridges));
    if (!op.append) ++reads_per_tape[op.tape];
  }
  std::vector<std::vector<sched::Request>> reads(kCartridges);
  for (int t = 0; t < kCartridges; ++t) {
    // Zipf over the objects written at set-up.
    workload::ZipfGenerator zipf(
        st.end_of_data(t), kObjectsPerCartridge, kZipfTheta,
        static_cast<int32_t>((int64_t{seed} * kCartridges + t) & 0x7fffffff));
    reads[t] = zipf.Batch(reads_per_tape[t]);
  }
  std::vector<size_t> next(kCartridges, 0);
  for (Op& op : ops) {
    if (!op.append) op.segment = reads[op.tape][next[op.tape]++].segment;
  }
  return ops;
}

/// Modeled outcome of one round.
struct RoundResult {
  std::vector<double> responses;
  std::vector<double> flush_modeled_seconds;
  int64_t reads = 0;
  int64_t cache_hits = 0;
  int64_t appends = 0;
  int64_t mounts = 0;
  int64_t full_reads = 0;
  double append_modeled_seconds = 0.0;
  double library_seconds = 0.0;
  double busy_seconds = 0.0;

  bool operator==(const RoundResult&) const = default;
};

}  // namespace

void RunStoreRw(const Args& args, Spans& spans, Report& report) {
  std::vector<Op> ops;
  std::vector<double> generate_seconds;
  report.Set("setup_s", MedianSetupSeconds([&] {
               std::unique_ptr<store::TertiaryStore> st = BuildStore(report);
               double start = CpuNow();
               ops = GenerateOps(*st, args.seed);
               generate_seconds.push_back(CpuNow() - start);
             }));
  report.Set("workload.generate_s", Median(generate_seconds));
  if (!report.errors.empty()) return;

  std::optional<RoundResult> first;
  // Untraced rounds: call 0 is the whole round, call 1 + f its flush f.
  BestTimes best;
  int flushes = 0;
  RunRounds(args, spans, 3, report, [&](int, bool traced) {
    int flush_index = 0;
    std::unique_ptr<store::TertiaryStore> st = BuildStore(report);
    store::TapeLibrary& library = st->library();
    RoundResult r;
    const int64_t mounts_before = library.total_mounts();
    const double clock_before = library.now();
    const double busy_before = library.busy_seconds();
    std::vector<uint64_t> submitted;
    std::vector<uint64_t> completed;
    bool ok = true;
    auto flush = [&] {
      std::optional<StatusOr<store::FlushReport>> flushed;
      double seconds =
          spans.Time("store.flush", [&] { flushed.emplace(st->Flush()); });
      if (!traced) best.Add(1 + flush_index, seconds);
      ++flush_index;
      if (!flushed->ok()) {
        ok = false;
        return;
      }
      const store::FlushReport& f = **flushed;
      r.flush_modeled_seconds.push_back(f.elapsed_seconds);
      r.full_reads += f.full_scans;
      for (const store::CompletedRead& c : f.completed) {
        completed.push_back(c.id);
        r.responses.push_back(c.response_seconds());
        if (c.cache_hit) ++r.cache_hits;
      }
    };

    double start = CpuNow();
    for (int64_t i = 0; i < kOps && ok; ++i) {
      const Op& op = ops[i];
      if (op.append) {
        double before = library.now();
        std::optional<StatusOr<tape::SegmentId>> appended;
        spans.Trace("store.append", [&] {
          appended.emplace(st->Append(op.tape, kAppendSegments));
        });
        ok = appended->ok();
        r.append_modeled_seconds += library.now() - before;
        ++r.appends;
      } else {
        std::optional<StatusOr<uint64_t>> id;
        spans.Trace("store.submit",
                   [&] { id.emplace(st->SubmitRead(op.tape, op.segment)); });
        ok = id->ok();
        if (ok) submitted.push_back(**id);
        ++r.reads;
      }
      library.Idle(kOpGapSeconds);
      if ((i + 1) % kFlushEvery == 0 || i + 1 == kOps) flush();
    }
    double seconds = CpuNow() - start;

    report.attempted += kOps;
    if (!ok) {
      report.failed += kOps;
      report.Check(false, "a store operation returned an error");
      return seconds;
    }
    std::sort(submitted.begin(), submitted.end());
    std::sort(completed.begin(), completed.end());
    report.Check(submitted == completed,
                 "submitted reads did not each complete exactly once");
    r.mounts = library.total_mounts() - mounts_before;
    r.library_seconds = library.now() - clock_before;
    r.busy_seconds = library.busy_seconds() - busy_before;
    if (!first.has_value()) {
      first = std::move(r);
    } else {
      report.Check(r == *first, "modeled results differ between rounds");
    }
    if (!traced) best.Add(0, seconds);
    flushes = flush_index;
    return seconds;
  });
  if (!report.errors.empty()) return;

  const RoundResult& r = *first;
  const double reads = static_cast<double>(r.reads);
  obs::Histogram histogram;
  for (double s : r.responses) histogram.Add(s);
  auto mean_call = [&](const char* name) {
    const std::vector<double>& d = spans.durations(name);
    return d.empty() ? 0.0 : spans.total(name) / d.size();
  };

  report.SetModeled("makespan_s", Mean(r.flush_modeled_seconds));
  report.SetModeled("mean_response_s", Mean(r.responses));
  report.SetModeled("p99_response_s", OrderStatistic(r.responses, 0.99));
  report.SetModeled("answered_per_h",
                    r.responses.size() / (r.library_seconds / 3600.0));
  report.SetModeled("ok_share", r.responses.size() / reads);
  const double round_seconds = best.Best(0);
  report.Set("build_s", (best.Total() - round_seconds) / flushes);
  report.Set("sim_requests_per_s", kOps / round_seconds);

  report.SetModeled("sim.mean_batch_size",
                    (reads - r.cache_hits) / r.flush_modeled_seconds.size());
  report.SetModeled("sim.busy_s_per_request", r.busy_seconds / reads);
  report.SetModeled("sim.utilization", r.busy_seconds / r.library_seconds);
  report.SetModeled("store.cache_hit_share", r.cache_hits / reads);
  report.SetModeled("store.mounts_per_op",
                    static_cast<double>(r.mounts) / kOps);
  report.SetModeled("store.full_reads", r.full_reads);
  report.SetModeled("store.append_modeled_s",
                    r.append_modeled_seconds / r.appends);
  report.Set("store.submit_s", mean_call("store.submit"));
  report.Set("store.append_s", mean_call("store.append"));
  report.Set("store.flush_s", mean_call("store.flush"));
  report.SetModeled("obs.hist_p99_response_s", histogram.Quantile(0.99));
  report.SetModeled("obs.max_response_s", histogram.max_seconds());
}

}  // namespace perfbench
