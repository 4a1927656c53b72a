#include "serpentine/sched/step_planner.h"

#include <algorithm>

#include "serpentine/sched/estimator.h"
#include "serpentine/util/check.h"

namespace serpentine::sched {
namespace {

// A read-forward locate and a stream over the same gap are one motion
// summed two ways; streaming must win by more than that rounding.
constexpr double kTieSeconds = 1e-6;

}  // namespace

StepPlanner::StepPlanner(const tape::LocateModel& model, tape::SegmentId head,
                         bool include_reads)
    : model_(&model),
      include_reads_(include_reads),
      head_(head),
      pass_start_(head),
      pass_end_(head) {}

Step StepPlanner::Next(const Request& r) {
  SERPENTINE_CHECK_GE(r.segment, 0);
  SERPENTINE_CHECK_LE(r.last(), model_->geometry().total_segments() - 1);
  Step step;
  if (!include_reads_) {
    step.locate_seconds = model_->LocateSeconds(head_, r.segment);
    Restart(OutPosition(model_->geometry(), r));
    return step;
  }

  if (r.segment >= pass_start_ && r.segment < pass_end_) {
    step.kind = StepKind::kFromPass;
    step.scan_from = pass_end_;
    if (step.scans(r)) {
      step.read_seconds = model_->ReadSeconds(pass_end_, r.last());
      ReadThrough(r.last());
    }
    return step;
  }

  double locate = model_->LocateSeconds(head_, r.segment);
  double read = model_->ReadSeconds(r.segment, r.last());
  if (r.segment > head_) {
    double stream = model_->ReadSeconds(head_, r.last());
    if (stream < locate + read - kTieSeconds) {
      step.kind = StepKind::kStream;
      step.scan_from = head_;
      step.read_seconds = stream;
      ReadThrough(r.last());
      return step;
    }
  }
  step.locate_seconds = locate;
  step.read_seconds = read;
  Restart(r.segment);
  ReadThrough(r.last());
  return step;
}

void StepPlanner::Restart(tape::SegmentId head) {
  head_ = head;
  pass_start_ = head;
  pass_end_ = head;
}

void StepPlanner::ReadThrough(tape::SegmentId last) {
  pass_end_ = std::max(pass_end_, last + 1);
  head_ = std::min(pass_end_, model_->geometry().total_segments() - 1);
}

}  // namespace serpentine::sched
