#include "serpentine/sim/recovering_executor.h"

#include <utility>

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

}  // namespace

RecoveringExecutor::RecoveringExecutor(drive::Drive& drive,
                                       const tape::LocateModel& scheduling_model,
                                       RecoveryOptions options)
    : drive_(&drive),
      scheduling_model_(scheduling_model),
      options_(std::move(options)) {}

RecoveringExecutor::RecoveringExecutor(const tape::LocateModel& drive,
                                       const tape::LocateModel& scheduling_model,
                                       drive::FaultInjector* injector,
                                       RecoveryOptions options)
    : scheduling_model_(scheduling_model),
      options_(std::move(options)),
      owned_base_(std::make_unique<drive::ModelDrive>(drive)),
      owned_fault_(
          std::make_unique<drive::FaultDrive>(owned_base_.get(), injector)) {
  drive_ = owned_fault_.get();
}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule) const {
  return Execute(schedule, StepCallback());
}

RecoveringExecutionResult RecoveringExecutor::ExecuteFullScan(
    const sched::Schedule& schedule, const StepCallback& on_step) const {
  const tape::TapeGeometry& g = drive_->geometry();
  RecoveringExecutionResult r;

  // An open breaker (HealthDrive in the stack) may refuse an op; the
  // refusal charges the remaining cooldown, so one re-issue is the
  // half-open probe and is always admitted.
  auto through_breaker = [&](auto issue) {
    drive::OpResult op = issue();
    if (op.status == drive::OpStatus::kCircuitOpen) {
      ++r.breaker_fast_fails;
      r.breaker_wait_seconds += op.retry_after_seconds;
      r.recovery_seconds += op.times.recovery_seconds;
      NoteFault("circuit-open", "recover.breaker_fast_fails",
                r.recovery_seconds);
      op = issue();
    }
    return op;
  };

  tape::SegmentId last = g.total_segments() - 1;
  r.read_seconds =
      through_breaker([&] { return drive_->ScanSegments(0, last); })
          .times.read_seconds;
  r.segments_read = g.total_segments();

  // Faults strike the delivery of individual requested spans; the scan
  // itself (a streaming pass) keeps going. The fault layer (if any) charges
  // a re-read of the span for transient errors and loses the span on
  // permanent ones — see FaultDrive::DeliverSpan.
  double recovery_before = 0.0;  // recovery accrued before each delivery
  for (const sched::Request& req : schedule.order) {
    double recovery_at_entry = r.recovery_seconds;
    drive::OpResult op = through_breaker(
        [&] { return drive_->DeliverSpan(req.segment, req.last()); });
    recovery_before += r.recovery_seconds - recovery_at_entry;
    r.recovery_seconds += op.times.recovery_seconds;
    recovery_before += op.times.recovery_seconds;
    r.transient_read_errors += op.transient_read_errors;
    r.retries += op.transient_read_errors;
    bool ok = op.ok();
    if (!ok) {
      ++r.permanent_errors;
      r.abandoned_segments.push_back(req.segment);
      r.segments_read -= req.count;
    } else {
      ++r.requests_serviced;
    }
    if (on_step) {
      on_step(req, drive_->model().ReadSeconds(0, req.last()) + recovery_before,
              ok);
    }
  }

  r.rewind_seconds = drive_->Rewind().times.rewind_seconds;
  r.final_position = drive_->Position();
  r.total_seconds =
      r.read_seconds + r.rewind_seconds + r.recovery_seconds;
  return r;
}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule, const StepCallback& on_step) const {
  if (schedule.full_tape_scan) return ExecuteFullScan(schedule, on_step);

  RecoveringExecutionResult r;
  r.final_position = schedule.initial_position;
  if (schedule.order.empty()) {
    drive_->SetPosition(schedule.initial_position);
    return r;
  }

  // The live plan: requests not yet serviced, in service order. Repairs
  // replace it wholesale; the planner carries the head and the pass across
  // them.
  std::vector<sched::Request> queue = schedule.order;
  size_t idx = 0;
  drive_->SetPosition(schedule.initial_position);
  sched::StepPlanner planner(scheduling_model_, schedule.initial_position,
                             options_.estimate.include_reads);
  int reschedules_left = options_.reschedule_after_fault
                             ? options_.max_reschedules
                             : 0;
  // Virtual time in operation order, for completion stamps. The category
  // sums (locate/read/recovery) are kept separately so the zero-fault
  // totals match ExecuteSchedule's summation order exactly.
  double elapsed = 0.0;

  // Reissues an op refused by an open breaker: the refusal charged the
  // remaining cooldown, so the retry is the admitted half-open probe.
  auto through_breaker = [&](auto issue) {
    drive::OpResult op = issue();
    if (op.status == drive::OpStatus::kCircuitOpen) {
      ++r.breaker_fast_fails;
      r.breaker_wait_seconds += op.retry_after_seconds;
      r.recovery_seconds += op.times.recovery_seconds;
      elapsed += op.times.recovery_seconds;
      NoteFault("circuit-open", "recover.breaker_fast_fails", elapsed);
      op = issue();
    }
    return op;
  };

  while (idx < queue.size()) {
    const sched::Request req = queue[idx];
    const sched::Step step = planner.Next(req);

    // -------- stream / from-pass: scan, then deliver --------
    // The scan never faults; a delivery absorbs one transient re-read and
    // fails only on a permanent media error, which leaves the head (and
    // the pass) where the scan put them.
    if (step.kind != sched::StepKind::kLocate) {
      if (step.scans(req)) {
        double scan = through_breaker([&] {
                        return drive_->ScanSegments(step.scan_from,
                                                    req.last());
                      }).times.read_seconds;
        r.read_seconds += scan;
        elapsed += scan;
        r.segments_read += req.last() - step.scan_from + 1;
      }
      drive::OpResult op = through_breaker(
          [&] { return drive_->DeliverSpan(req.segment, req.last()); });
      r.recovery_seconds += op.times.recovery_seconds;
      elapsed += op.times.recovery_seconds;
      r.transient_read_errors += op.transient_read_errors;
      r.retries += op.transient_read_errors;
      ++idx;
      if (op.ok()) {
        ++r.requests_serviced;
        if (on_step) on_step(req, elapsed, true);
        continue;
      }
      ++r.permanent_errors;
      NoteFault("permanent-media-error", "recover.permanent_errors", elapsed);
      r.abandoned_segments.push_back(req.segment);
      obs::IncrementCounter("recover.abandoned");
      if (on_step) on_step(req, elapsed, false);
      continue;
    }

    // -------- locate phase (with retries) --------
    bool located = false;
    bool abandoned = false;
    bool reschedule_now = false;
    for (int attempt = 0;;) {
      drive::OpResult op = drive_->Locate(req.segment);
      if (op.status == drive::OpStatus::kOk) {
        r.locate_seconds += op.times.locate_seconds;
        elapsed += op.times.locate_seconds;
        ++r.locates;
        located = true;
        break;
      }
      if (op.status == drive::OpStatus::kCircuitOpen) {
        // A health decorator refused the op and charged the remaining
        // cooldown as the wait; the next attempt is the half-open probe.
        // Deliberately no ++attempt and no backoff: waiting out a breaker
        // must not burn the retry budget reserved for real faults.
        ++r.breaker_fast_fails;
        r.breaker_wait_seconds += op.retry_after_seconds;
        r.recovery_seconds += op.times.recovery_seconds;
        elapsed += op.times.recovery_seconds;
        NoteFault("circuit-open", "recover.breaker_fast_fails", elapsed);
        if (reschedules_left > 0 && queue.size() - idx > 1) {
          // Use the forced idle time to re-plan around the sick drive: the
          // head has not moved, but the faults that tripped the breaker
          // usually have (resets, overshoots), so the plan is suspect.
          reschedule_now = true;
          break;
        }
        continue;
      }
      if (op.status == drive::OpStatus::kDriveReset) {
        // The transport force-rewound to BOT (the drive charged the reset
        // plus the rewind as recovery).
        ++r.drive_resets;
        r.recovery_seconds += op.times.recovery_seconds;
        elapsed += op.times.recovery_seconds;
        NoteFault("drive-reset", "recover.drive_resets", elapsed);
        if (reschedules_left > 0 && queue.size() - idx > 1) {
          // The plan is stale: repair from BOT, current request included.
          // With nothing else left to re-plan, fall through to the retry
          // counter instead (a lone request can only be retried, and the
          // counter bounds that).
          reschedule_now = true;
          break;
        }
      } else {  // kLocateOvershoot
        ++r.locate_overshoots;
        r.recovery_seconds += op.times.recovery_seconds;
        elapsed += op.times.recovery_seconds;
        NoteFault("locate-overshoot", "recover.locate_overshoots", elapsed);
      }
      ++attempt;
      if (attempt >= options_.retry.max_attempts) {
        abandoned = true;
        break;
      }
      double backoff = BackoffSeconds(options_.retry, attempt - 1);
      NoteBackoff(elapsed, backoff);
      r.recovery_seconds += backoff;
      elapsed += backoff;
      ++r.retries;
    }

    // -------- read phase (with retries) --------
    bool permanent_failure = false;
    if (located) {
      if (!options_.estimate.include_reads) {
        drive_->SetPosition(planner.head());
        ++r.requests_serviced;
        if (on_step) on_step(req, elapsed, true);
      } else {
        for (int attempt = 0;;) {
          drive::OpResult op = drive_->ReadSegments(req.segment, req.last());
          if (op.status == drive::OpStatus::kOk) {
            r.read_seconds += op.times.read_seconds;
            elapsed += op.times.read_seconds;
            r.segments_read += req.count;
            ++r.requests_serviced;
            if (on_step) on_step(req, elapsed, true);
            break;
          }
          if (op.status == drive::OpStatus::kCircuitOpen) {
            // As in the locate phase: charge the wait, keep the retry
            // budget intact, re-issue as the probe.
            ++r.breaker_fast_fails;
            r.breaker_wait_seconds += op.retry_after_seconds;
            r.recovery_seconds += op.times.recovery_seconds;
            elapsed += op.times.recovery_seconds;
            NoteFault("circuit-open", "recover.breaker_fast_fails", elapsed);
            continue;
          }
          if (op.status == drive::OpStatus::kPermanentMediaError) {
            ++r.permanent_errors;
            r.recovery_seconds += op.times.recovery_seconds;
            elapsed += op.times.recovery_seconds;
            NoteFault("permanent-media-error", "recover.permanent_errors",
                      elapsed);
            abandoned = true;
            permanent_failure = true;
            break;
          }
          // Transient: the failed pass streamed the span for nothing and
          // the drive repositioned internally (head back at the span start).
          ++r.transient_read_errors;
          r.recovery_seconds += op.times.recovery_seconds;
          elapsed += op.times.recovery_seconds;
          NoteFault("transient-read-error", "recover.transient_read_errors",
                    elapsed);
          ++attempt;
          if (attempt >= options_.retry.max_attempts) {
            abandoned = true;
            break;
          }
          double backoff = BackoffSeconds(options_.retry, attempt - 1);
          NoteBackoff(elapsed, backoff);
          r.recovery_seconds += backoff;
          elapsed += backoff;
          ++r.retries;
        }
      }
    }

    // A step that did not service its request left the head wherever the
    // faults put it: the pass ends there.
    if (abandoned || !located) planner.Restart(drive_->Position());

    if (abandoned) {
      r.abandoned_segments.push_back(req.segment);
      obs::IncrementCounter("recover.abandoned");
      if (on_step) on_step(req, elapsed, false);
      ++idx;
      // A permanent media error invalidates the plan's assumptions about
      // the neighborhood; re-plan the remainder from where the head is.
      if (permanent_failure && reschedules_left > 0 &&
          queue.size() - idx > 1) {
        reschedule_now = true;
      }
    } else if (located) {
      ++idx;  // serviced
    }
    // else: reset path broke out before locating — idx stays, the current
    // request rejoins the (possibly repaired) plan.

    // -------- mid-batch rescheduling --------
    if (reschedule_now) {
      std::vector<sched::Request> remaining(queue.begin() + idx, queue.end());
      if (remaining.size() > 1) {
        sched::Algorithm algorithm =
            RepairAlgorithm(schedule.algorithm, remaining.size());
        auto repaired = sched::BuildSchedule(scheduling_model_,
                                             drive_->Position(), remaining,
                                             algorithm,
                                             options_.scheduler_options);
        if (!repaired.ok()) {
          repaired = sched::BuildSchedule(scheduling_model_,
                                          drive_->Position(), remaining,
                                          sched::Algorithm::kLoss,
                                          options_.scheduler_options);
        }
        if (repaired.ok() && !repaired->full_tape_scan) {
          queue = std::move(repaired->order);
          idx = 0;
          --reschedules_left;
          ++r.reschedules;
          obs::IncrementCounter("recover.reschedules");
          obs::TraceInstant(obs::TraceClock::kVirtual, "recover",
                            "reschedule", elapsed);
        }
        // On any failure the stale order keeps being serviced; recovery
        // never aborts the batch.
      }
    }
  }

  if (options_.estimate.rewind_at_end) {
    r.rewind_seconds = drive_->Rewind().times.rewind_seconds;
    elapsed += r.rewind_seconds;
  }
  r.final_position = drive_->Position();
  r.total_seconds = r.locate_seconds + r.read_seconds + r.rewind_seconds +
                    r.recovery_seconds;
  return r;
}

}  // namespace serpentine::sim
