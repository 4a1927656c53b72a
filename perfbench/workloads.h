// The benchmark's four workloads. Each sets up its inputs from args.seed,
// runs measured rounds for args.seconds, checks the library's outputs,
// and fills `report` with every metric it measures (perfbench/README.md
// says which layer each one belongs to and why each workload exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunBatch10k(const Args& args, Spans& spans, Report& report);
void RunServe1Lib(const Args& args, Spans& spans, Report& report);
void RunFleetMix(const Args& args, Spans& spans, Report& report);
void RunStoreRw(const Args& args, Spans& spans, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
