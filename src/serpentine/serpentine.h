// Umbrella header: the whole public API of the serpentine library.
//
// Layering (each includes only the ones above it):
//   util -> obs -> tape -> tsp -> sched -> drive -> sim/workload
//        -> layout/fleet/store
#ifndef SERPENTINE_SERPENTINE_H_
#define SERPENTINE_SERPENTINE_H_

#include "serpentine/util/check.h"
#include "serpentine/util/env.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/retry.h"
#include "serpentine/util/stats.h"
#include "serpentine/util/status.h"
#include "serpentine/util/statusor.h"
#include "serpentine/util/table.h"

#include "serpentine/obs/histogram.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"

#include "serpentine/tape/calibration.h"
#include "serpentine/tape/geometry.h"
#include "serpentine/tape/keypoint_io.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/tape/types.h"

#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/exact.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/sparse_loss.h"

#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/local_search.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sched/step_planner.h"
#include "serpentine/sched/weave_pattern.h"

#include "serpentine/drive/drive.h"
#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/health_drive.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/drive/tracing_drive.h"

#include "serpentine/sim/case_mix.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/perturbed_model.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/sim/wear.h"

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/engine.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/fleet/router.h"

#include "serpentine/workload/generators.h"
#include "serpentine/workload/trace_io.h"

#include "serpentine/layout/heat_map.h"
#include "serpentine/layout/migration.h"
#include "serpentine/layout/oracle.h"
#include "serpentine/layout/placement.h"

#include "serpentine/store/segment_cache.h"
#include "serpentine/store/store.h"
#include "serpentine/store/striped_volume.h"
#include "serpentine/store/tape_library.h"

#endif  // SERPENTINE_SERPENTINE_H_
