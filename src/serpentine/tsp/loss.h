// The LOSS greedy heuristic for the asymmetric traveling-salesman path
// (paper §4, after [LLKS85]): repeatedly commit the cheapest edge incident
// on the city whose "loss" — the gap between its best and second-best
// remaining edge — is largest, so that committing the short edge avoids
// being forced onto a much longer one later.
#ifndef SERPENTINE_TSP_LOSS_H_
#define SERPENTINE_TSP_LOSS_H_

#include <cstdint>
#include <vector>

#include "serpentine/tsp/cost_matrix.h"

namespace serpentine::tsp {

/// Builds a Hamiltonian path over all cities starting at city 0 using the
/// LOSS rule. Each city keeps its few cheapest available in- and out-edges;
/// a commit refreshes only the caches it invalidates, in O(K + log n)
/// each, and re-searches a cache only once it runs low. A dense matrix is
/// still read once in full (O(n²)) to fill the caches; a cost source with
/// a lower bound (LocateCostSoA on the Dlt4000 kernel) is searched outward
/// from each city instead, so on tape batches the whole solve prices a
/// few dozen edges per city (tsp/loss_solver.h).
std::vector<int> SolveLossPath(const CostMatrix& m);

/// Statistics from a SolveLossPathWithStats run, for the ablation benches.
struct LossStats {
  int iterations = 0;        ///< committed edges (n - 1)
  int64_t edges_priced = 0;  ///< cost-source evaluations
};

/// As SolveLossPath, also reporting work counters.
std::vector<int> SolveLossPathWithStats(const CostMatrix& m,
                                        LossStats* stats);

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_H_
