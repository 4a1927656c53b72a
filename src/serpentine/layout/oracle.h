// Analytic oracle for linear-seek scheduling, after Bachmat's space-time
// geometry analysis of disk scheduling (see PAPERS.md): on a drive whose
// locate cost is overhead + seconds_per_segment * |distance| (the
// HelicalLocateModel), the mean tour length of FIFO and nearest-ascending
// (SORT) service admits closed forms, and the minimal number of forward
// passes over a batch equals the longest decreasing subsequence of its
// key sequence (Dilworth), whose expectation follows the
// Vershik–Kerov / Baik–Deift–Johansson law 2*sqrt(n) - 1.7711 * n^(1/6).
//
// These are the simulator's first *independent* checks: the predictions
// come from probability theory, not from the code under test, so a
// regression in the scheduler, the executor, or the RNG shows up as a
// divergence from the closed form (docs/placement.md has the derivations
// and tolerances; tests/layout_oracle_test.cc pins them).
#ifndef SERPENTINE_LAYOUT_ORACLE_H_
#define SERPENTINE_LAYOUT_ORACLE_H_

#include <cstdint>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::layout {

/// Closed-form mean tour lengths on a linear-seek drive serving n
/// uniformly random single-segment requests from head position 0.
struct LinearSeekOracle {
  /// Mirror of the HelicalLocateModel's parameters.
  tape::SegmentId total_segments = 0;
  double overhead_seconds = 5.0;
  double seconds_per_segment = 2.5e-4;
  double transfer_seconds_per_segment = 0.0655;

  /// Reads the parameters off an existing model's defaults.
  static LinearSeekOracle ForModel(tape::SegmentId total_segments,
                                   double overhead_seconds,
                                   double seconds_per_segment,
                                   double transfer_seconds_per_segment);

  /// FIFO: first locate from 0 averages T/2; each later locate is the
  /// mean absolute gap between independent uniforms, T/3.
  ///   E = n*overhead + s*(T/2 + (n-1)*T/3) + n*transfer
  double PredictFifoTourSeconds(int64_t n) const;

  /// SORT (ascending service): the gaps telescope to the maximum of n
  /// uniforms, T*n/(n+1), minus the n-1 single-segment head advances the
  /// reads already cover, so the mean gap is
  ///   g = (T*n/(n+1) - (n-1)) / n.
  /// The step planner streams a gap of G segments when reading it costs
  /// less than locating over it (x*G < a + s*G, x = transfer, a =
  /// overhead), i.e. below G* = a/(x - s), so each step costs
  /// min(a + s*G, x*G) = x*G - (x - s)*(G - G*)⁺. A spacing of n sorted
  /// uniforms exceeds d with probability (1 - d/T)^n, which gives
  /// E[(G - G*)⁺] = T/(n+1) * (1 - G*/T)^(n+1), and
  ///   E = n*(x*g - (x - s)*T/(n+1)*(1 - G*/T)^(n+1)) + n*transfer,
  /// which tends to n*overhead + s*n*g + n*transfer for sparse batches.
  double PredictSortedTourSeconds(int64_t n) const;
};

/// Expected minimal number of forward passes (strictly increasing
/// subsequences) covering n iid uniform keys:
/// 2*sqrt(n) - 1.7711 * n^(1/6) (the Tracy–Widom mean of the
/// Baik–Deift–Johansson fluctuation term).
double PredictForwardPasses(int64_t n);

/// Length of the longest strictly decreasing subsequence of `keys` —
/// by Dilworth's theorem, the minimal number of strictly increasing
/// subsequences covering them. O(n log n).
int64_t LongestDecreasingSubsequence(const std::vector<double>& keys);

/// Greedy best-fit partition of `keys` (in arrival order) into strictly
/// increasing subsequences ("forward passes"): each key extends the pass
/// with the largest last element below it, or opens a new pass. The pass
/// count achieves the Dilworth minimum. Returns, per pass, the indices
/// into `keys` it serves.
std::vector<std::vector<int32_t>> ForwardPassPartition(
    const std::vector<double>& keys);

/// Measured mean tour seconds: `trials` batches of `n` uniform requests
/// (per-trial decorrelated rand48 streams), scheduled by `algorithm` and
/// executed from position 0 through the real BuildSchedule/ExecuteSchedule
/// pipeline on `model`. What the oracle's closed forms predict.
double MeasureMeanTourSeconds(const tape::LocateModel& model,
                              sched::Algorithm algorithm, int64_t n,
                              int64_t trials, int32_t seed);

}  // namespace serpentine::layout

#endif  // SERPENTINE_LAYOUT_ORACLE_H_
