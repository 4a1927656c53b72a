// Test-only oracle: the original full-scan LOSS solver, kept verbatim in
// behaviour so tsp_loss_oracle_test.cc can require the production solver
// (tsp/loss_solver.h) to return bit-identical paths.
//
// Every commit walks all row and column caches, checks each cached edge
// through union-find, and rescans a whole row when a cached endpoint was
// consumed. Ties in loss break toward the cheaper edge, then toward the
// earlier cache in scan order (city ascending, out-cache before in-cache).
#ifndef SERPENTINE_TESTS_REFERENCE_LOSS_SOLVER_H_
#define SERPENTINE_TESTS_REFERENCE_LOSS_SOLVER_H_

#include <vector>

#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp::oracle {

template <typename Costs>
class ReferenceLossSolver {
 public:
  explicit ReferenceLossSolver(const Costs& m)
      : m_(m),
        n_(m.size()),
        parent_(m.size()),
        out_choice_(m.size(), -1),
        in_choice_(m.size(), -1),
        out_cache_(m.size()),
        in_cache_(m.size()) {
    for (int i = 0; i < n_; ++i) parent_[i] = i;
  }

  std::vector<int> Solve() {
    if (n_ == 1) return {0};
    for (int committed = 0; committed < n_ - 1; ++committed) {
      int city = -1;
      bool use_out = true;
      double best_loss = -1.0;
      double best_edge = kInfiniteCost;
      auto better = [&](double l, double edge) {
        return l > best_loss || (l == best_loss && edge < best_edge);
      };
      for (int c = 0; c < n_; ++c) {
        if (out_choice_[c] < 0) {
          RefreshOut(c);
          double l = out_cache_[c].loss();
          if (better(l, out_cache_[c].best_cost)) {
            best_loss = l;
            best_edge = out_cache_[c].best_cost;
            city = c;
            use_out = true;
          }
        }
        if (c != 0 && in_choice_[c] < 0) {
          RefreshIn(c);
          double l = in_cache_[c].loss();
          if (better(l, in_cache_[c].best_cost)) {
            best_loss = l;
            best_edge = in_cache_[c].best_cost;
            city = c;
            use_out = false;
          }
        }
      }
      SERPENTINE_CHECK_GE(city, 0);
      int u = use_out ? city : in_cache_[city].best;
      int v = use_out ? out_cache_[city].best : city;
      out_choice_[u] = v;
      in_choice_[v] = u;
      parent_[Find(u)] = Find(v);
    }
    std::vector<int> order = {0};
    for (int at = 0; out_choice_[at] >= 0;) {
      at = out_choice_[at];
      order.push_back(at);
    }
    SERPENTINE_CHECK_EQ(static_cast<int>(order.size()), n_);
    return order;
  }

 private:
  struct TwoBest {
    int best = -1;
    double best_cost = kInfiniteCost;
    int second = -1;
    double second_cost = kInfiniteCost;

    double loss() const {
      if (best < 0) return -1.0;
      return second_cost - best_cost;
    }
    void Offer(int city, double c) {
      if (c < best_cost) {
        second = best;
        second_cost = best_cost;
        best = city;
        best_cost = c;
      } else if (c < second_cost) {
        second = city;
        second_cost = c;
      }
    }
  };

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool OutAvailable(int u, int v) {
    return v != u && v != 0 && in_choice_[v] < 0 && Find(u) != Find(v);
  }
  bool InAvailable(int u, int v) {
    return u != v && out_choice_[u] < 0 && Find(u) != Find(v);
  }

  void RefreshOut(int u) {
    TwoBest& tb = out_cache_[u];
    if (tb.best >= 0 && OutAvailable(u, tb.best) &&
        (tb.second < 0 || OutAvailable(u, tb.second))) {
      return;
    }
    tb = TwoBest();
    for (int v = 0; v < n_; ++v) {
      if (OutAvailable(u, v)) tb.Offer(v, m_.cost(u, v));
    }
  }

  void RefreshIn(int v) {
    TwoBest& tb = in_cache_[v];
    if (tb.best >= 0 && InAvailable(tb.best, v) &&
        (tb.second < 0 || InAvailable(tb.second, v))) {
      return;
    }
    tb = TwoBest();
    for (int u = 0; u < n_; ++u) {
      if (InAvailable(u, v)) tb.Offer(u, m_.cost(u, v));
    }
  }

  const Costs& m_;
  int n_;
  std::vector<int> parent_;
  std::vector<int> out_choice_;
  std::vector<int> in_choice_;
  std::vector<TwoBest> out_cache_;
  std::vector<TwoBest> in_cache_;
};

template <typename Costs>
std::vector<int> SolveReferenceLoss(const Costs& costs) {
  return ReferenceLossSolver<Costs>(costs).Solve();
}

}  // namespace serpentine::tsp::oracle

#endif  // SERPENTINE_TESTS_REFERENCE_LOSS_SOLVER_H_
