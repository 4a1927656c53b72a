#include "serpentine/sim/recovering_executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/step_planner.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {
namespace {

// Observability hooks (category "recover"): instants for each fault class
// at the virtual time it struck, spans for backoff waits, and counters in
// the ambient metrics registry. All of this is skipped on one branch when
// neither a recorder nor a registry is installed, and none of it touches
// the virtual clock — traced and untraced executions are bit-identical.
void NoteFault(const char* name, const char* counter, double at_seconds) {
  obs::TraceInstant(obs::TraceClock::kVirtual, "recover", name, at_seconds);
  obs::IncrementCounter(counter);
}

void NoteBackoff(double start_seconds, double backoff_seconds) {
  obs::TraceComplete(obs::TraceClock::kVirtual, "recover", "backoff",
                     start_seconds, start_seconds + backoff_seconds);
  obs::IncrementCounter("recover.retries");
  obs::ObserveHistogram("recover.backoff_seconds", backoff_seconds);
}

/// Algorithm used when re-planning the remainder mid-batch. READ makes no
/// sense for a partial remainder and OPT blows up past the paper's
/// 12-request ceiling, so both repair with LOSS (the paper's recommended
/// general-purpose scheduler); everything else re-plans with itself.
sched::Algorithm RepairAlgorithm(sched::Algorithm original, size_t remaining) {
  if (original == sched::Algorithm::kRead) return sched::Algorithm::kLoss;
  if (original == sched::Algorithm::kOpt && remaining > 12) {
    return sched::Algorithm::kLoss;
  }
  return original;
}

/// One Execute() call's accounting: the result, the drive seconds not yet
/// reported to the step callback, and the breaker re-issue and retry rules
/// every op goes through. The result's category sums (locate, read,
/// recovery) are kept apart from the step time, so zero-fault totals sum
/// exactly as the estimator does and each step as the fault-free serving
/// clock always has.
class Walk {
 public:
  Walk(drive::Drive& drive, const RecoveringExecutor::StepCallback& on_step)
      : drive_(drive), on_step_(on_step) {}

  RecoveringExecutionResult r;

  /// Drive seconds since the last completion report.
  double step() const { return step_; }
  /// Virtual seconds since Execute began (trace stamps).
  double elapsed() const { return elapsed_; }

  void Spend(double seconds) {
    step_ += seconds;
    elapsed_ += seconds;
  }
  void Recover(double seconds) {
    r.recovery_seconds += seconds;
    Spend(seconds);
  }

  /// Reports `req` complete with the time spent since the last report.
  void Report(const sched::Request& req, bool ok) {
    if (on_step_) on_step_(req, step_, ok);
    step_ = 0.0;
  }
  void Abandon(const sched::Request& req) {
    r.abandoned_segments.push_back(req.segment);
    obs::IncrementCounter("recover.abandoned");
    Report(req, false);
  }

  /// True when a health decorator refused `op` because its breaker is
  /// open. The refusal charged the remaining cooldown, which lands in
  /// recovery; the next attempt is the admitted half-open probe. Waiting
  /// out a breaker never burns the retry budget reserved for real faults.
  bool Refused(const drive::OpResult& op) {
    if (op.status != drive::OpStatus::kCircuitOpen) return false;
    ++r.breaker_fast_fails;
    r.breaker_wait_seconds += op.retry_after_seconds;
    Recover(op.times.recovery_seconds);
    NoteFault("circuit-open", "recover.breaker_fast_fails", elapsed_);
    return true;
  }

  /// Issues an op, re-issuing it once as the probe if the breaker refused.
  template <typename Issue>
  drive::OpResult ThroughBreaker(Issue issue) {
    drive::OpResult op = issue();
    if (Refused(op)) op = issue();
    return op;
  }

  /// Counts a failed attempt. False once `policy` allows no more; else
  /// waits out the backoff before the next attempt.
  bool Retry(const RetryPolicy& policy, int& attempt) {
    if (++attempt >= policy.max_attempts) return false;
    double backoff = BackoffSeconds(policy, attempt - 1);
    NoteBackoff(elapsed_, backoff);
    Recover(backoff);
    ++r.retries;
    return true;
  }

  /// Scans [from, last] (a scan never faults).
  void Scan(tape::SegmentId from, tape::SegmentId last) {
    double seconds = ThroughBreaker([&] {
                       return drive_.ScanSegments(from, last);
                     }).times.read_seconds;
    r.read_seconds += seconds;
    Spend(seconds);
    r.segments_read += last - from + 1;
  }

  /// Delivers `req` from the pass the head has read. A delivery absorbs
  /// one transient re-read and fails only on a permanent media error,
  /// which leaves the head (and the pass) where the scan put them.
  bool Deliver(const sched::Request& req) {
    drive::OpResult op = ThroughBreaker(
        [&] { return drive_.DeliverSpan(req.segment, req.last()); });
    Recover(op.times.recovery_seconds);
    r.transient_read_errors += op.transient_read_errors;
    r.retries += op.transient_read_errors;
    if (op.ok()) {
      ++r.requests_serviced;
      return true;
    }
    ++r.permanent_errors;
    NoteFault("permanent-media-error", "recover.permanent_errors", elapsed_);
    return false;
  }

 private:
  drive::Drive& drive_;
  const RecoveringExecutor::StepCallback& on_step_;
  double step_ = 0.0;
  double elapsed_ = 0.0;
};

/// One streaming pass over the whole tape, then a rewind. Faults strike
/// the delivery of individual requested spans; the pass itself keeps
/// going. Deliveries run in pass order, each stamped where the head passes
/// the request's last segment plus the recovery the deliveries before it
/// took.
RecoveringExecutionResult ExecuteFullScan(
    drive::Drive& drive, const sched::Schedule& schedule,
    const RecoveringExecutor::StepCallback& on_step) {
  Walk w(drive, on_step);
  RecoveringExecutionResult& r = w.r;
  w.Scan(0, drive.geometry().total_segments() - 1);

  std::vector<const sched::Request*> pass;
  pass.reserve(schedule.order.size());
  for (const sched::Request& req : schedule.order) pass.push_back(&req);
  std::stable_sort(pass.begin(), pass.end(),
                   [](const sched::Request* a, const sched::Request* b) {
                     return a->last() < b->last();
                   });
  double delivery_recovery = 0.0;
  double reported = 0.0;  // pass offset of the previous report
  for (const sched::Request* req : pass) {
    double recovery_before = r.recovery_seconds;
    bool ok = w.Deliver(*req);
    delivery_recovery += r.recovery_seconds - recovery_before;
    if (!ok) {
      r.abandoned_segments.push_back(req->segment);
      obs::IncrementCounter("recover.abandoned");
      r.segments_read -= req->count;
    }
    double at = drive.model().ReadSeconds(0, req->last()) + delivery_recovery;
    if (on_step) on_step(*req, at - reported, ok);
    reported = at;
  }

  r.rewind_seconds = drive.Rewind().times.rewind_seconds;
  r.final_position = drive.Position();
  r.total_seconds = r.read_seconds + r.rewind_seconds + r.recovery_seconds;
  r.tail_seconds = r.total_seconds - reported;
  return r;
}

}  // namespace

RecoveringExecutor::RecoveringExecutor(drive::Drive& drive,
                                       const tape::LocateModel& scheduling_model,
                                       RecoveryOptions options)
    : drive_(drive),
      scheduling_model_(scheduling_model),
      options_(std::move(options)) {}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule) const {
  return Execute(schedule, StepCallback());
}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule, const StepCallback& on_step) const {
  if (schedule.full_tape_scan) {
    return ExecuteFullScan(drive_, schedule, on_step);
  }

  Walk w(drive_, on_step);
  RecoveringExecutionResult& r = w.r;
  r.final_position = schedule.initial_position;
  drive_.SetPosition(schedule.initial_position);
  if (schedule.order.empty()) return r;

  // The live plan: requests not yet serviced, in service order. A repair
  // replaces it wholesale; the planner carries the head and the pass
  // across repairs.
  const std::vector<sched::Request>* queue = &schedule.order;
  std::vector<sched::Request> repaired_order;
  size_t idx = 0;
  sched::StepPlanner planner(scheduling_model_, schedule.initial_position,
                             options_.estimate.include_reads);
  int reschedules_left = options_.reschedule_after_fault
                             ? options_.max_reschedules
                             : 0;
  while (idx < queue->size()) {
    const sched::Request req = (*queue)[idx];
    const sched::Step step = planner.Next(req);

    // -------- stream / from-pass: scan, then deliver --------
    if (step.kind != sched::StepKind::kLocate) {
      if (step.scans(req)) w.Scan(step.scan_from, req.last());
      ++idx;
      if (w.Deliver(req)) {
        w.Report(req, true);
      } else {
        w.Abandon(req);
      }
      continue;
    }

    // -------- locate phase (with retries) --------
    bool located = false;
    bool abandoned = false;
    bool reschedule_now = false;
    for (int attempt = 0;;) {
      drive::OpResult op = drive_.Locate(req.segment);
      if (op.status == drive::OpStatus::kOk) {
        r.locate_seconds += op.times.locate_seconds;
        w.Spend(op.times.locate_seconds);
        ++r.locates;
        located = true;
        break;
      }
      if (w.Refused(op)) {
        if (reschedules_left > 0 && queue->size() - idx > 1) {
          // Use the forced idle time to re-plan around the sick drive: the
          // head has not moved, but the faults that tripped the breaker
          // usually have (resets, overshoots), so the plan is suspect.
          reschedule_now = true;
          break;
        }
        continue;
      }
      w.Recover(op.times.recovery_seconds);
      if (op.status == drive::OpStatus::kDriveReset) {
        // The transport force-rewound to BOT (the drive charged the reset
        // plus the rewind as recovery).
        ++r.drive_resets;
        NoteFault("drive-reset", "recover.drive_resets", w.elapsed());
        if (reschedules_left > 0 && queue->size() - idx > 1) {
          // The plan is stale: repair from BOT, current request included.
          // With nothing else left to re-plan, fall through to the retry
          // counter instead (a lone request can only be retried, and the
          // counter bounds that).
          reschedule_now = true;
          break;
        }
      } else {  // kLocateOvershoot
        ++r.locate_overshoots;
        NoteFault("locate-overshoot", "recover.locate_overshoots",
                  w.elapsed());
      }
      if (!w.Retry(options_.retry, attempt)) {
        abandoned = true;
        break;
      }
    }

    // -------- read phase (with retries) --------
    bool permanent_failure = false;
    if (located) {
      if (!options_.estimate.include_reads) {
        drive_.SetPosition(planner.head());
        ++r.requests_serviced;
        w.Report(req, true);
      } else {
        for (int attempt = 0;;) {
          drive::OpResult op = drive_.ReadSegments(req.segment, req.last());
          if (op.status == drive::OpStatus::kOk) {
            r.read_seconds += op.times.read_seconds;
            w.Spend(op.times.read_seconds);
            r.segments_read += req.count;
            ++r.requests_serviced;
            w.Report(req, true);
            break;
          }
          if (w.Refused(op)) continue;
          w.Recover(op.times.recovery_seconds);
          if (op.status == drive::OpStatus::kPermanentMediaError) {
            ++r.permanent_errors;
            NoteFault("permanent-media-error", "recover.permanent_errors",
                      w.elapsed());
            abandoned = true;
            permanent_failure = true;
            break;
          }
          // Transient: the failed pass streamed the span for nothing and
          // the drive repositioned internally (head back at the span start).
          ++r.transient_read_errors;
          NoteFault("transient-read-error", "recover.transient_read_errors",
                    w.elapsed());
          if (!w.Retry(options_.retry, attempt)) {
            abandoned = true;
            break;
          }
        }
      }
    }

    // A step that did not service its request left the head wherever the
    // faults put it: the pass ends there.
    if (abandoned || !located) planner.Restart(drive_.Position());

    if (abandoned) {
      w.Abandon(req);
      ++idx;
      // A permanent media error invalidates the plan's assumptions about
      // the neighborhood; re-plan the remainder from where the head is.
      if (permanent_failure && reschedules_left > 0 &&
          queue->size() - idx > 1) {
        reschedule_now = true;
      }
    } else if (located) {
      ++idx;  // serviced
    }
    // else: reset path broke out before locating — idx stays, the current
    // request rejoins the (possibly repaired) plan.

    // -------- mid-batch rescheduling --------
    if (reschedule_now && queue->size() - idx > 1) {
      std::vector<sched::Request> remaining(queue->begin() + idx,
                                            queue->end());
      sched::Algorithm algorithm =
          RepairAlgorithm(schedule.algorithm, remaining.size());
      auto repaired =
          sched::BuildSchedule(scheduling_model_, drive_.Position(),
                               remaining, algorithm,
                               options_.scheduler_options);
      if (!repaired.ok()) {
        repaired = sched::BuildSchedule(scheduling_model_, drive_.Position(),
                                        remaining, sched::Algorithm::kLoss,
                                        options_.scheduler_options);
      }
      if (repaired.ok() && !repaired->full_tape_scan) {
        repaired_order = std::move(repaired->order);
        queue = &repaired_order;
        idx = 0;
        --reschedules_left;
        ++r.reschedules;
        obs::IncrementCounter("recover.reschedules");
        obs::TraceInstant(obs::TraceClock::kVirtual, "recover", "reschedule",
                          w.elapsed());
      }
      // On any failure the stale order keeps being serviced; recovery
      // never aborts the batch.
    }
  }

  if (options_.estimate.rewind_at_end) {
    r.rewind_seconds = drive_.Rewind().times.rewind_seconds;
    w.Spend(r.rewind_seconds);
  }
  r.final_position = drive_.Position();
  r.total_seconds = r.locate_seconds + r.read_seconds + r.rewind_seconds +
                    r.recovery_seconds;
  r.tail_seconds = w.step();
  return r;
}

}  // namespace serpentine::sim
