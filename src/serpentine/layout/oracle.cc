#include "serpentine/layout/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::layout {

LinearSeekOracle LinearSeekOracle::ForModel(
    tape::SegmentId total_segments, double overhead_seconds,
    double seconds_per_segment, double transfer_seconds_per_segment) {
  LinearSeekOracle oracle;
  oracle.total_segments = total_segments;
  oracle.overhead_seconds = overhead_seconds;
  oracle.seconds_per_segment = seconds_per_segment;
  oracle.transfer_seconds_per_segment = transfer_seconds_per_segment;
  return oracle;
}

double LinearSeekOracle::PredictFifoTourSeconds(int64_t n) const {
  SERPENTINE_CHECK_GT(n, 0);
  const double t = static_cast<double>(total_segments);
  const double nn = static_cast<double>(n);
  return nn * overhead_seconds +
         seconds_per_segment * (t / 2.0 + (nn - 1.0) * t / 3.0) +
         nn * transfer_seconds_per_segment;
}

double LinearSeekOracle::PredictSortedTourSeconds(int64_t n) const {
  SERPENTINE_CHECK_GT(n, 0);
  const double t = static_cast<double>(total_segments);
  const double nn = static_cast<double>(n);
  const double gap = (t * nn / (nn + 1.0) - (nn - 1.0)) / nn;
  const double x = transfer_seconds_per_segment;
  const double s = seconds_per_segment;
  if (x <= s) return nn * (overhead_seconds + s * gap + x);  // never streams
  const double crossover = overhead_seconds / (x - s);
  const double beyond =
      t / (nn + 1.0) * std::pow(1.0 - crossover / t, nn + 1.0);
  return nn * (x * gap - (x - s) * beyond) + nn * x;
}

double PredictForwardPasses(int64_t n) {
  SERPENTINE_CHECK_GT(n, 0);
  const double nn = static_cast<double>(n);
  // 2*sqrt(n) is Vershik–Kerov's leading term; -1.7711*n^(1/6) is the
  // mean of the Tracy–Widom GUE fluctuation (Baik–Deift–Johansson).
  return 2.0 * std::sqrt(nn) - 1.7711 * std::pow(nn, 1.0 / 6.0);
}

int64_t LongestDecreasingSubsequence(const std::vector<double>& keys) {
  // LDS(keys) == LIS(negated keys); patience tails, O(n log n).
  std::vector<double> tails;
  for (double k : keys) {
    double negated = -k;
    auto it = std::lower_bound(tails.begin(), tails.end(), negated);
    if (it == tails.end()) {
      tails.push_back(negated);
    } else {
      *it = negated;
    }
  }
  return static_cast<int64_t>(tails.size());
}

std::vector<std::vector<int32_t>> ForwardPassPartition(
    const std::vector<double>& keys) {
  std::vector<std::vector<int32_t>> passes;
  // Last element of each open pass → pass index. Best fit: extend the
  // pass with the largest last element strictly below the key.
  std::multimap<double, size_t> open;
  for (int32_t i = 0; i < static_cast<int32_t>(keys.size()); ++i) {
    auto it = open.lower_bound(keys[i]);
    if (it == open.begin()) {
      passes.push_back({i});
      open.emplace(keys[i], passes.size() - 1);
    } else {
      --it;
      size_t pass = it->second;
      passes[pass].push_back(i);
      open.erase(it);
      open.emplace(keys[i], pass);
    }
  }
  return passes;
}

double MeasureMeanTourSeconds(const tape::LocateModel& model,
                              sched::Algorithm algorithm, int64_t n,
                              int64_t trials, int32_t seed) {
  SERPENTINE_CHECK_GT(trials, 0);
  const tape::SegmentId total = model.geometry().total_segments();
  double sum = 0.0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    Lrand48 rng;
    rng.SeedState(DeriveRand48State(seed, trial));
    std::vector<sched::Request> batch;
    batch.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      batch.push_back(sched::Request{rng.NextBounded(total), 1});
    }
    StatusOr<sched::Schedule> schedule =
        sched::BuildSchedule(model, /*initial_position=*/0, batch, algorithm);
    SERPENTINE_CHECK(schedule.ok());
    sum += sim::ExecuteSchedule(model, schedule.value()).total_seconds;
  }
  return sum / static_cast<double>(trials);
}

}  // namespace serpentine::layout
