// Extension: striped tape arrays ([DK93], cited in the paper's related
// work) composed with scheduling. Sweeps stripe width for a fixed logical
// batch: makespan speedup vs the schedule-length penalty (each drive's
// share is N/K, and smaller schedules have a worse per-locate cost —
// Fig 4's curve working against striping).
#include <cstdio>

#include "bench_common.h"
#include "serpentine/store/striped_volume.h"

using namespace serpentine;

int main() {
  bench::PrintHeader("Striped tape arrays (extension)",
                     "LOSS-scheduled batch over K parallel drives");

  Lrand48 rng(11);
  constexpr int kBatch = 512;
  const int trials = static_cast<int>(ScaledTrials(2000, 100, 500, 5));

  Table table;
  table.SetHeader({"drives", "makespan s", "speedup", "efficiency %",
                   "drive-s total", "s/request"});
  double base = 0.0;
  for (int k : {1, 2, 4, 8}) {
    store::StripedVolume volume(tape::Dlt4000TapeParams(), k,
                                tape::Dlt4000Timings());
    double makespan_sum = 0, total_sum = 0;
    Lrand48 gen(11);
    for (int t = 0; t < trials; ++t) {
      std::vector<tape::SegmentId> batch;
      for (int i = 0; i < kBatch; ++i)
        batch.push_back(gen.NextBounded(volume.logical_segments()));
      auto r = volume.ExecuteBatch(batch, "loss");
      if (!r.ok()) return 1;
      makespan_sum += r->makespan_seconds;
      total_sum += r->total_drive_seconds;
    }
    double makespan = makespan_sum / trials;
    if (k == 1) base = makespan;
    table.AddRow({Table::Int(k), Table::Num(makespan, 0),
                  Table::Num(base / makespan, 2),
                  Table::Num(base / makespan / k * 100.0, 1),
                  Table::Num(total_sum / trials, 0),
                  Table::Num(makespan / kBatch, 1)});
  }
  table.Print();
  std::printf(
      "\nExpected: near-linear but sub-ideal speedup — splitting an N=512 "
      "batch over 8 drives leaves each with N=64, where per-locate cost is "
      "~1.8x worse (Fig 4), so efficiency degrades with stripe width. "
      "Striping buys latency; batching buys efficiency.\n");
  return 0;
}
