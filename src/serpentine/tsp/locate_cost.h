// Flat structure-of-arrays locate-cost source for the open-path TSP
// formulation of tape scheduling. Where CostMatrix::Build materializes all
// O(n²) edge costs up front, LocateCostSoA precomputes only the O(n)
// per-city locate inputs — track, reading section, physical position, and
// key-point position of every city's in/out endpoint — and prices each edge
// on demand with a branch-light arithmetic kernel. Solvers that touch a
// sparse or shifting subset of edges (sparse LOSS, Or-opt, partitioned
// LOSS) never pay for edges they do not read, and 100k-city batches stop
// needing an 80 GB matrix.
//
// The kernel reproduces Dlt4000LocateModel::LocateSeconds bit for bit: the
// same case-1 test, the same key-point clamp, and the same floating-point
// expression shapes evaluated in the same order (pinned by
// tsp_locate_cost_test.cc). For any other model the class degrades to
// forwarding each evaluation to model.LocateSeconds — callers that need
// the plan-each-pair-once guarantee on that path wrap the model in a
// tape::CachedLocateModel first.
#ifndef SERPENTINE_TSP_LOCATE_COST_H_
#define SERPENTINE_TSP_LOCATE_COST_H_

#include <cmath>
#include <vector>

#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/types.h"
#include "serpentine/tsp/cost_matrix.h"

namespace serpentine::tsp {

class LocateCostSoA {
 public:
  /// Builds the per-city arrays. City i's out-edges depart from
  /// `out_positions[i]` (head position after servicing i) and its in-edges
  /// arrive at `in_positions[i]` (first segment of i). Both vectors must
  /// have the same size; city 0 is the start. `model` must outlive this
  /// object (only the non-kernel fallback dereferences it after
  /// construction).
  LocateCostSoA(const tape::LocateModel& model,
                std::vector<tape::SegmentId> out_positions,
                std::vector<tape::SegmentId> in_positions);

  int size() const { return n_; }

  /// True when edges are priced by the inlined Dlt4000 kernel instead of
  /// virtual model calls.
  bool fast_kernel() const { return fast_; }

  /// True when cost()/LocateSeconds() may be called from several threads at
  /// once: the kernel path reads only immutable arrays; the fallback
  /// inherits the model's own guarantee.
  bool thread_safe() const {
    return fast_ || model_->SupportsConcurrentUse();
  }

  tape::SegmentId out_position(int city) const { return out_seg_[city]; }
  tape::SegmentId in_position(int city) const { return in_seg_[city]; }

  /// Locate seconds from city i's out-position to city j's in-position.
  double LocateSeconds(int i, int j) const {
    return fast_ ? Kernel(i, j)
                 : model_->LocateSeconds(out_seg_[i], in_seg_[j]);
  }

  /// TSP path semantics, matching CostMatrix::Build: self-loops and edges
  /// into the start city are forbidden.
  double cost(int i, int j) const {
    if (i == j || j == 0) return kInfiniteCost;
    return LocateSeconds(i, j);
  }

  // Lower bounds for the LOSS solver's pruned neighbour search (the
  // tsp::BoundedCosts interface of loss_solver.h), kernel path only. A
  // locate that is not read-forward (case 1) reads from the destination's
  // key point, scans from the source's position to that key point and
  // then adds non-negative terms, so with d = |in_key(j) - out_key(i)| it
  // costs at least
  //   LowerBound(j, d) = read leg of j + LowerBound(d)  >=  LowerBound(d)
  // — the kernel's own partial sum, evaluated the same way, so the bounds
  // hold bit for bit. Read-forward locates from i reach exactly the
  // in-positions [out_position(i), read_forward_end(i)]: i's own track up
  // to the end of reading section r_s + 2. Seen from the destination, the
  // sources [read_forward_begin(j), in_position(j)] reach j that way.
  bool has_lower_bound() const { return fast_; }
  double out_key(int i) const { return out_ppos_[i]; }
  double in_key(int j) const { return in_kp_ppos_[j]; }
  double LowerBound(double key_distance) const {
    return scan_overhead_seconds_ + key_distance * scan_seconds_per_section_;
  }
  double LowerBound(int j, double key_distance) const {
    return in_kp_read_seconds_[j] + LowerBound(key_distance);
  }
  tape::SegmentId read_forward_end(int i) const {
    return read_forward_end_[i];
  }
  tape::SegmentId read_forward_begin(int j) const {
    return read_forward_begin_[j];
  }

 private:
  /// Bit-identical reimplementation of Dlt4000LocateModel::LocateSeconds
  /// over the precomputed arrays (see locate_model.cc PlanLocate): the
  /// key-point position and its read-forward leg are per-destination
  /// constants, so the per-edge work reduces to two abs/compare chains and
  /// one fused sum.
  double Kernel(int i, int j) const {
    const tape::SegmentId src = out_seg_[i];
    const tape::SegmentId dst = in_seg_[j];
    if (src == dst) return 0.0;
    const int track_s = out_track_[i];
    const int track_d = in_track_[j];
    const double p_s = out_ppos_[i];
    // Case 1: forward in the same track, within the same or next two
    // reading sections — the drive stays at read speed.
    if (track_s == track_d && dst >= src && in_rsec_[j] <= out_rsec_[i] + 2) {
      return std::abs(in_ppos_[j] - p_s) * read_seconds_per_section_;
    }
    const double p_kp = in_kp_ppos_[j];
    const double scan_distance = std::abs(p_kp - p_s);
    const int src_dir = out_forward_[i] ? +1 : -1;
    const int scan_dir = p_kp > p_s ? +1 : (p_kp < p_s ? -1 : src_dir);
    double t = in_kp_read_seconds_[j];
    t += scan_overhead_seconds_ + scan_distance * scan_seconds_per_section_;
    if (track_s != track_d) t += track_switch_seconds_;
    if (scan_distance > 0.0 && scan_dir != src_dir) {
      t += reversal_penalty_seconds_;
    }
    return t;
  }

  int n_ = 0;
  bool fast_ = false;
  const tape::LocateModel* model_;
  std::vector<tape::SegmentId> out_seg_;
  std::vector<tape::SegmentId> in_seg_;

  // Kernel-only per-city arrays (empty on the fallback path).
  std::vector<int> out_track_;
  std::vector<int> in_track_;
  std::vector<int> out_rsec_;
  std::vector<int> in_rsec_;
  std::vector<double> out_ppos_;
  std::vector<double> in_ppos_;
  std::vector<double> in_kp_ppos_;
  /// Seconds of the read-forward leg from the destination's key point:
  /// |p_dst - p_kp| * read_seconds_per_section, precomputed once per city.
  std::vector<double> in_kp_read_seconds_;
  std::vector<char> out_forward_;
  std::vector<tape::SegmentId> read_forward_end_;
  std::vector<tape::SegmentId> read_forward_begin_;

  double read_seconds_per_section_ = 0.0;
  double scan_seconds_per_section_ = 0.0;
  double scan_overhead_seconds_ = 0.0;
  double track_switch_seconds_ = 0.0;
  double reversal_penalty_seconds_ = 0.0;
};

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOCATE_COST_H_
