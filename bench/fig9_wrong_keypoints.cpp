// Figure 9: percent error in estimated schedule execution times when the
// scheduler is given the WRONG tape's key points — schedules for tape A
// built and estimated with tape B's geometry, then executed on tape A.
//
// Paper: "The consequence is disastrous, with the typical difference
// between estimated and measured time about 20%." The point of the
// experiment: key points must be characterized per cartridge.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/stats.h"

using namespace serpentine;

int main() {
  bench::PrintHeader("Figure 9",
                     "Percent error with the wrong key points (tape B's "
                     "model scheduling and estimating reads executed on "
                     "tape A), 4 trials per size");

  tape::Dlt4000LocateModel model_b = bench::MakeTapeBModel();
  sim::PhysicalDrive drive_a(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  tape::SegmentId usable =
      std::min(model_b.geometry().total_segments(),
               drive_a.geometry().total_segments());

  Table table;
  table.SetHeader({"N", "err1%", "err2%", "err3%", "err4%", "mean|err|%"});
  Lrand48 rng(19);
  for (int n : sim::PaperScheduleLengths()) {
    if (n < 4) continue;
    std::vector<std::string> row = {Table::Int(n)};
    Accumulator abs_err;
    for (int trial = 0; trial < 4; ++trial) {
      auto requests = sim::GenerateUniformRequests(rng, n, usable);
      auto schedule = sched::BuildSchedule(model_b, 0, requests,
                                           sched::Algorithm::kLoss);
      if (!schedule.ok()) return 1;
      double estimate = sched::EstimateScheduleSeconds(model_b, *schedule);
      drive_a.ResetNoise(2000 + 31 * n + trial);
      // The drive executes the steps the scheduler's (wrong) model plans.
      double measured =
          sim::ExecuteSchedule(drive_a, *schedule, {}, &model_b).total_seconds;
      double err = sim::PercentError(estimate, measured);
      abs_err.Add(std::abs(err));
      row.push_back(Table::Num(err, 2));
    }
    row.push_back(Table::Num(abs_err.mean(), 2));
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
