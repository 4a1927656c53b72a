#include "serpentine/tsp/sparse_loss.h"

#include <algorithm>

#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/loss_solver.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp {

std::vector<int> SolveSparseLossPath(
    int n, const std::vector<std::vector<SparseEdge>>& out_edges,
    const std::function<double(int, int)>& full_cost,
    SparseLossStats* stats) {
  SERPENTINE_CHECK_GT(n, 0);
  SERPENTINE_CHECK_EQ(static_cast<int>(out_edges.size()), n);
  if (n == 1) return {0};

  if (stats != nullptr) {
    for (const auto& row : out_edges)
      stats->sparse_edges += static_cast<int>(row.size());
  }

  std::vector<int> out_choice(n, -1);
  std::vector<int> in_choice(n, -1);
  FragmentEnds fragments(n);

  // u→v needs u to be a fragment tail and v a head other than the start;
  // it closes a cycle exactly when v heads u's own fragment (which also
  // rules out u == v).
  auto available = [&](int u, int v) {
    return v != 0 && out_choice[u] < 0 && in_choice[v] < 0 &&
           fragments.head_of(u) != v;
  };

  // Sparse LOSS phase: per iteration pick, among candidate edges only, the
  // cheapest edge at the city with maximal loss. Candidate lists are short,
  // so the per-iteration scan is O(n log n) worst case.
  while (true) {
    int best_u = -1, best_v = -1;
    double best_loss = -1.0;
    double best_edge = kInfiniteCost;
    for (int u = 0; u < n; ++u) {
      if (out_choice[u] >= 0) continue;
      int b = -1;
      double bc = kInfiniteCost, sc = kInfiniteCost;
      for (const SparseEdge& e : out_edges[u]) {
        if (!available(u, e.to)) continue;
        if (e.cost < bc) {
          sc = bc;
          bc = e.cost;
          b = e.to;
        } else if (e.cost < sc) {
          sc = e.cost;
        }
      }
      if (b < 0) continue;
      double loss = sc - bc;
      // Tie-break toward the cheaper edge, matching the dense solver.
      if (loss > best_loss || (loss == best_loss && bc < best_edge)) {
        best_loss = loss;
        best_edge = bc;
        best_u = u;
        best_v = b;
      }
    }
    if (best_u < 0) break;  // LOSS "can proceed no further" on this graph
    out_choice[best_u] = best_v;
    in_choice[best_v] = best_u;
    fragments.Join(best_u, best_v);
    if (stats != nullptr) ++stats->sparse_commits;
  }

  // Collect the partial paths. Heads are cities without an in-edge; the
  // start city is always a head (edges into it are forbidden).
  std::vector<std::vector<int>> chains;
  int zero_chain = -1;
  for (int c = 0; c < n; ++c) {
    if (in_choice[c] >= 0) continue;
    std::vector<int> chain;
    for (int at = c; at >= 0; at = out_choice[at]) chain.push_back(at);
    if (c == 0) zero_chain = static_cast<int>(chains.size());
    chains.push_back(std::move(chain));
  }
  SERPENTINE_CHECK_GE(zero_chain, 0);
  if (stats != nullptr)
    stats->fragments_after_sparse = static_cast<int>(chains.size());

  if (chains.size() == 1) return chains[0];

  // Contraction phase: one dense city per partial path, linked with the
  // dense LOSS rule using exact costs from tail of one chain to head of
  // the next. The chain containing city 0 becomes contracted city 0.
  std::swap(chains[0], chains[zero_chain]);
  int k = static_cast<int>(chains.size());
  if (stats != nullptr) stats->contraction_cities = k;
  CostMatrix contracted = CostMatrix::Build(k, [&](int a, int b) {
    return full_cost(chains[a].back(), chains[b].front());
  });
  std::vector<int> order = SolveLossPath(contracted);

  std::vector<int> result;
  result.reserve(n);
  for (int chain_index : order) {
    const auto& chain = chains[chain_index];
    result.insert(result.end(), chain.begin(), chain.end());
  }
  SERPENTINE_CHECK_EQ(static_cast<int>(result.size()), n);
  return result;
}

}  // namespace serpentine::tsp
