// Extension bench: the end-to-end TertiaryStore. Two experiments:
//  1. Batching window vs service quality on one cartridge: larger windows
//     amortize positioning (the paper's core claim) at the cost of queueing
//     delay.
//  2. Scheduler comparison at the store level, including robot mount
//     overheads across multiple cartridges. Every row is a registry entry,
//     so every schedule is bounded by one ascending pass.
#include <cstdio>

#include "bench_common.h"
#include "serpentine/store/store.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

namespace {

/// Drives `total` uniform single-segment reads through a fresh store,
/// flushing every `batch` submissions with `gap_seconds` of host idle time
/// between arrivals. Returns (drive busy seconds, mean response seconds).
struct RunResult {
  double busy_seconds;
  double mean_response_seconds;
  double reads_per_hour;
};

RunResult RunStore(const char* scheduler, int cartridges, int total,
                   int batch, double gap_seconds, int32_t seed) {
  store::StoreOptions options;
  options.scheduler = scheduler;
  options.cache_segments = 0;  // isolate scheduling effects
  store::TertiaryStore st(
      options, store::TapeLibrary(tape::Dlt4000TapeParams(), cartridges,
                                  tape::Dlt4000Timings()));
  Lrand48 rng(seed);
  double response_sum = 0.0;
  int completed = 0;
  for (int i = 0; i < total; ++i) {
    int tape = static_cast<int>(rng.NextBounded(cartridges));
    tape::SegmentId seg = rng.NextBounded(
        st.library().model(tape).geometry().total_segments());
    auto id = st.SubmitRead(tape, seg);
    if (!id.ok()) std::abort();
    st.library().Idle(gap_seconds);
    if ((i + 1) % batch == 0 || i + 1 == total) {
      auto report = st.Flush();
      if (!report.ok()) std::abort();
      for (const auto& c : report->completed) {
        response_sum += c.response_seconds();
        ++completed;
      }
    }
  }
  RunResult r;
  r.busy_seconds = st.library().busy_seconds();
  r.mean_response_seconds = response_sum / completed;
  r.reads_per_hour = total / (st.library().now() / 3600.0);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader("Store throughput (extension)",
                     "TertiaryStore end-to-end: batching window and "
                     "algorithm choice, including robot mounts");

  const int total = static_cast<int>(ScaledTrials(2048, 4, 32, 256));

  std::printf("Experiment 1: batching window, 1 cartridge, opt-small (OPT "
              "up to 10 reads, LOSS above), %d reads, 30 s between "
              "arrivals\n\n", total);
  Table t1;
  t1.SetHeader({"batch", "drive busy s", "busy s/read", "mean response s"});
  for (int batch : {1, 8, 32, 128, 512}) {
    RunResult r = RunStore("opt-small", 1, total, batch, 30.0, 5);
    t1.AddRow({Table::Int(batch), Table::Num(r.busy_seconds, 0),
               Table::Num(r.busy_seconds / total, 1),
               Table::Num(r.mean_response_seconds, 0)});
  }
  t1.Print();
  std::printf(
      "\nExpected: busy seconds per read falls steeply with the batch size "
      "(the paper's Figs 4/5 translated to a served system), while queueing "
      "makes the mean response grow with the window.\n\n");

  std::printf("Experiment 2: algorithm comparison, 4 cartridges, batch 128, "
              "%d reads\n\n", total);
  Table t2;
  t2.SetHeader({"algorithm", "drive busy s", "busy s/read", "reads/hour"});
  for (const char* scheduler :
       {"fifo", "sort", "scan", "weave", "sltf", "loss", "sparse-loss"}) {
    RunResult r = RunStore(scheduler, 4, total, 128, 5.0, 7);
    t2.AddRow({scheduler, Table::Num(r.busy_seconds, 0),
               Table::Num(r.busy_seconds / total, 1),
               Table::Num(r.reads_per_hour, 0)});
  }
  t2.Print();
  return 0;
}
