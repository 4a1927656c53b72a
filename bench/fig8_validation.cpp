// Figure 8: percent error in estimated schedule execution times for the
// LOSS algorithm — estimate (locate-time model) vs measurement (the
// PhysicalDrive ground truth standing in for the authors' DLT4000), 4
// trials at each schedule size.
//
// Expected shape: |error| well under 1% for schedules below ~384 requests,
// growing to ~5% at 2048 because large schedules are dominated by short
// locates, where the model is least accurate.
#include <cstdio>

#include "bench_common.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

int main() {
  bench::PrintHeader("Figure 8",
                     "Percent error (estimate - measured) / measured, LOSS "
                     "schedules, 4 trials per schedule size");

  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  sim::PhysicalDrive drive(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());

  Table table;
  table.SetHeader({"N", "err1%", "err2%", "err3%", "err4%"});
  Lrand48 rng(17);
  for (int n : sim::PaperScheduleLengths()) {
    if (n < 4) continue;  // the paper's plot starts at small-but-multiple
    std::vector<std::string> row = {Table::Int(n)};
    for (int trial = 0; trial < 4; ++trial) {
      auto requests = sim::GenerateUniformRequests(
          rng, n, model.geometry().total_segments());
      auto schedule =
          sched::BuildSchedule(model, 0, requests, sched::Algorithm::kLoss);
      if (!schedule.ok()) return 1;
      double estimate = sched::EstimateScheduleSeconds(model, *schedule);
      drive.ResetNoise(1000 + 31 * n + trial);
      // The drive executes the steps the scheduler's model plans.
      double measured =
          sim::ExecuteSchedule(drive, *schedule, {}, &model).total_seconds;
      row.push_back(Table::Num(sim::PercentError(estimate, measured), 2));
    }
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
