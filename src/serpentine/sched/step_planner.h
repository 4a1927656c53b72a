// The one rule that turns a schedule's service order into drive steps.
//
// A schedule's `order` is the delivery permutation; how the drive gets the
// head over each request is decided here, once, for every consumer that
// walks a schedule: sim::RecoveringExecutor, the one code path that runs a
// schedule on a drive, and the estimator, the pipeline's head prediction
// and wear accounting, which only price steps. The head either skips a
// gap or reads through it (the linear-tape cost model of Cardonha & Villa
// Real frames it the same way), and whatever a pass has already read can
// be delivered again without moving:
//
//   * from the pass — the request starts inside the span the current pass
//     has read: DeliverSpan, after ScanSegments up to r.last() when the
//     request runs past what was read;
//   * stream — a forward gap that costs strictly less to read through than
//     to locate over: ScanSegments(head, r.last()), then DeliverSpan;
//   * locate — anything else: Locate + ReadSegments, exactly the paper's
//     per-request service. Read-forward locates cost the same as streaming
//     their gap and keep this op sequence, so fault draws only move where
//     timing moves.
//
// A pass starts at the target of every locate and grows with every read
// and scan. Any fault that moves the head ends it (Restart).
#ifndef SERPENTINE_SCHED_STEP_PLANNER_H_
#define SERPENTINE_SCHED_STEP_PLANNER_H_

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/types.h"

namespace serpentine::sched {

/// How the drive services one request.
enum class StepKind {
  /// Locate(r.segment), then ReadSegments(r.segment, r.last()).
  kLocate,
  /// ScanSegments(scan_from, r.last()), then DeliverSpan(r.segment,
  /// r.last()).
  kStream,
  /// DeliverSpan(r.segment, r.last()), preceded by ScanSegments(scan_from,
  /// r.last()) when scans() is true.
  kFromPass,
};

/// One planned step, priced by the planner's model.
struct Step {
  StepKind kind = StepKind::kLocate;
  /// First segment the step scans (kStream and kFromPass only).
  tape::SegmentId scan_from = 0;
  /// Modeled seconds of the locate leg (kLocate only).
  double locate_seconds = 0.0;
  /// Modeled seconds of the transfer: the read (kLocate) or the scan.
  double read_seconds = 0.0;

  /// True when the step issues ScanSegments(scan_from, r.last()).
  bool scans(const Request& r) const {
    return kind != StepKind::kLocate && scan_from <= r.last();
  }
};

/// Walks a service order one request at a time, tracking the head and the
/// span the current pass has read.
class StepPlanner {
 public:
  /// Plans from `head` with nothing read yet. With `include_reads` false
  /// (estimate-only accounting) every step is a bare locate and the head
  /// jumps past each request, as it always has.
  StepPlanner(const tape::LocateModel& model, tape::SegmentId head,
              bool include_reads = true);

  /// The step that services `r` next. Advances the head and the pass as if
  /// the step ran.
  Step Next(const Request& r);

  /// Ends the current pass with the head at `head`: a fault moved it, or
  /// the plan was rebuilt from it.
  void Restart(tape::SegmentId head);

  /// Head position after the steps planned so far.
  tape::SegmentId head() const { return head_; }

 private:
  /// Extends the pass through `last` and parks the head past it.
  void ReadThrough(tape::SegmentId last);

  const tape::LocateModel* model_;
  bool include_reads_;
  tape::SegmentId head_;
  /// The current pass has read segments [pass_start_, pass_end_).
  tape::SegmentId pass_start_;
  tape::SegmentId pass_end_;
};

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_STEP_PLANNER_H_
