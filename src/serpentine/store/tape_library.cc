#include "serpentine/store/tape_library.h"

#include <algorithm>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/util/check.h"

namespace serpentine::store {

TapeLibrary::TapeLibrary(const tape::TapeParams& params, int cartridges,
                         tape::DriveTimings timings,
                         LibraryTimings library_timings, int32_t first_seed,
                         int drives)
    : library_timings_(library_timings) {
  SERPENTINE_CHECK_GT(cartridges, 0);
  SERPENTINE_CHECK_GT(drives, 0);
  models_.reserve(cartridges);
  for (int i = 0; i < cartridges; ++i) {
    models_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
        tape::TapeGeometry::Generate(params, first_seed + i), timings));
  }
  bays_.resize(drives);
}

TapeLibrary::TapeLibrary(
    std::vector<std::unique_ptr<tape::LocateModel>> models,
    LibraryTimings library_timings, int drives)
    : models_(std::move(models)), library_timings_(library_timings) {
  SERPENTINE_CHECK_GT(num_cartridges(), 0);
  SERPENTINE_CHECK_GT(drives, 0);
  for (const auto& m : models_) SERPENTINE_CHECK(m != nullptr);
  bays_.resize(drives);
}

const tape::LocateModel& TapeLibrary::model(int tape) const {
  SERPENTINE_CHECK_GE(tape, 0);
  SERPENTINE_CHECK_LT(tape, num_cartridges());
  return *models_[tape];
}

int TapeLibrary::CheckDrive(int d) const {
  SERPENTINE_CHECK_GE(d, 0);
  SERPENTINE_CHECK_LT(d, num_drives());
  return d;
}

double TapeLibrary::now() const {
  double t = 0.0;
  for (const DriveBay& b : bays_) t = std::max(t, b.clock_seconds);
  return t;
}

double TapeLibrary::busy_seconds() const {
  double t = 0.0;
  for (const DriveBay& b : bays_) t += b.busy_seconds;
  return t;
}

serpentine::Status TapeLibrary::RequireMounted(int d) const {
  if (bay(d).mounted < 0) {
    return FailedPreconditionError(
        "no cartridge mounted in drive " + std::to_string(d) +
        " (library holds " + std::to_string(num_cartridges()) +
        " cartridges; call Mount first)");
  }
  return OkStatus();
}

serpentine::Status TapeLibrary::ValidateTape(int tape) const {
  if (tape < 0 || tape >= num_cartridges()) {
    return InvalidArgumentError("cartridge " + std::to_string(tape) +
                                " out of range [0, " +
                                std::to_string(num_cartridges()) + ")");
  }
  return OkStatus();
}

int TapeLibrary::HolderOf(int tape) const {
  for (int d = 0; d < num_drives(); ++d) {
    if (bays_[d].mounted == tape) return d;
  }
  return -1;
}

void TapeLibrary::SetMountFaults(drive::FaultInjector* injector,
                                 RetryPolicy retry) {
  fault_injector_ = injector;
  mount_retry_ = retry;
}

void TapeLibrary::EnableMountBreaker(const drive::BreakerPolicy& policy) {
  mount_breaker_ = std::make_unique<drive::CircuitBreaker>(policy);
}

void TapeLibrary::WaitForRobot(DriveBay& b) {
  if (robot_free_at_ > b.clock_seconds) {
    // Queued behind another drive's exchange: stall this drive's clock to
    // the robot's release time. Waiting is not busy time.
    robot_wait_seconds_ += robot_free_at_ - b.clock_seconds;
    b.clock_seconds = robot_free_at_;
  }
}

void TapeLibrary::ReleaseRobot(const DriveBay& b) {
  robot_free_at_ = b.clock_seconds;
  ++robot_exchanges_;
}

double TapeLibrary::BreakerNow(const DriveBay& b) {
  breaker_clock_ = std::max(
      breaker_clock_, std::max(b.clock_seconds, robot_free_at_));
  return breaker_clock_;
}

serpentine::Status TapeLibrary::Mount(int d, int tape) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(ValidateTape(tape), "Mount"));
  DriveBay& b = bay(d);
  if (b.mounted == tape) return OkStatus();
  int holder = HolderOf(tape);
  if (holder >= 0) {
    return FailedPreconditionError(
        "Mount: cartridge " + std::to_string(tape) +
        " is already mounted in drive " + std::to_string(holder));
  }

  // A tripped mount breaker fails fast before any robot motion: no clock
  // spend, no fault draws, and the current cartridge stays mounted. The
  // caller can Idle() out the cooldown (reported in the message) or route
  // the request to another library.
  if (mount_breaker_ != nullptr) {
    double retry_after = 0.0;
    if (!mount_breaker_->Admit(BreakerNow(b), &retry_after)) {
      ++mount_fast_fails_;
      obs::IncrementCounter("library.mount_fast_fails");
      return UnavailableError(
          "Mount: mount breaker open for cartridge " + std::to_string(tape) +
          "; retry after " + std::to_string(retry_after) + "s");
    }
  }

  if (b.mounted >= 0) SERPENTINE_RETURN_IF_ERROR(Unmount(d));

  // The robot exchange + load may fail under fault injection; each failed
  // attempt costs a robot re-pick plus the policy's backoff before trying
  // again. The whole exchange (failed attempts included) is one virtual
  // "mount" span in the library category, and one robot occupation: a
  // concurrent exchange on another drive queues until this one resolves.
  WaitForRobot(b);
  double mount_start = b.clock_seconds;
  int attempts = std::max(1, mount_retry_.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (fault_injector_ != nullptr && fault_injector_->DrawMountFault()) {
      ++mount_retries_;
      obs::IncrementCounter("library.mount_retries");
      obs::TraceInstant(obs::TraceClock::kVirtual, "library", "mount-fault",
                        b.clock_seconds);
      Spend(b, fault_injector_->profile().mount_retry_seconds);
      if (mount_breaker_ != nullptr) {
        mount_breaker_->RecordFailure(BreakerNow(b));
        // The breaker may have tripped mid-exchange; abandon the remaining
        // attempts immediately rather than drawing against a robot the
        // breaker has just condemned.
        if (mount_breaker_->state() == drive::BreakerState::kOpen) {
          ReleaseRobot(b);
          return UnavailableError(
              "Mount: mount breaker tripped open after " +
              std::to_string(attempt + 1) + " failed attempts on cartridge " +
              std::to_string(tape));
        }
      }
      if (attempt + 1 < attempts) {
        Spend(b, BackoffSeconds(mount_retry_, attempt));
      }
      continue;
    }
    Spend(b, library_timings_.robot_exchange_seconds +
                 library_timings_.load_seconds);
    b.mounted = tape;
    b.head = std::make_unique<drive::ModelDrive>(*models_[tape]);
    ++total_mounts_;
    ReleaseRobot(b);
    if (mount_breaker_ != nullptr) {
      mount_breaker_->RecordSuccess(BreakerNow(b));
    }
    obs::IncrementCounter("library.mounts");
    obs::TraceComplete(obs::TraceClock::kVirtual, "library",
                       "mount:" + std::to_string(tape), mount_start,
                       b.clock_seconds);
    return OkStatus();
  }
  ReleaseRobot(b);
  return ResourceExhaustedError(
      "Mount: robot failed to mount cartridge " + std::to_string(tape) +
      " after " + std::to_string(attempts) + " attempts");
}

serpentine::Status TapeLibrary::Unmount(int d) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(RequireMounted(d), "Unmount"));
  DriveBay& b = bay(d);
  double unmount_start = b.clock_seconds;
  int tape = b.mounted;
  // Single-reel cartridges must rewind to eject (paper footnote 5). The
  // rewind is drive-local; only the unload + slot return occupies the
  // robot.
  Spend(b, b.head->Rewind().times.rewind_seconds);
  WaitForRobot(b);
  Spend(b, library_timings_.unload_seconds +
               library_timings_.robot_exchange_seconds);
  ReleaseRobot(b);
  b.mounted = -1;
  b.head.reset();
  obs::IncrementCounter("library.unmounts");
  obs::TraceComplete(obs::TraceClock::kVirtual, "library",
                     "unmount:" + std::to_string(tape), unmount_start,
                     b.clock_seconds);
  return OkStatus();
}

serpentine::StatusOr<double> TapeLibrary::LocateTo(int d,
                                                   tape::SegmentId segment) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(RequireMounted(d), "LocateTo"));
  DriveBay& b = bay(d);
  const auto& model = *models_[b.mounted];
  if (segment < 0 || segment >= model.geometry().total_segments()) {
    return OutOfRangeError(
        "LocateTo: target segment " + std::to_string(segment) +
        " off tape " + std::to_string(b.mounted) + " (capacity " +
        std::to_string(model.geometry().total_segments()) + ")");
  }
  double t = b.head->Locate(segment).times.locate_seconds;
  Spend(b, t);
  return t;
}

serpentine::StatusOr<double> TapeLibrary::ReadForward(int d, int64_t count) {
  SERPENTINE_RETURN_IF_ERROR(AnnotateStatus(RequireMounted(d), "ReadForward"));
  if (count <= 0) {
    return InvalidArgumentError("ReadForward: count must be positive, got " +
                                std::to_string(count));
  }
  DriveBay& b = bay(d);
  const auto& model = *models_[b.mounted];
  tape::SegmentId head = b.head->Position();
  tape::SegmentId last = head + count - 1;
  if (last >= model.geometry().total_segments()) {
    return OutOfRangeError(
        "ReadForward: " + std::to_string(count) + " segments from " +
        std::to_string(head) + " run off the end of tape " +
        std::to_string(b.mounted) + " (capacity " +
        std::to_string(model.geometry().total_segments()) + ")");
  }
  // The drive clamps the head just past the span (sched::OutPosition rule).
  double t = b.head->ReadSegments(head, last).times.read_seconds;
  Spend(b, t);
  return t;
}

serpentine::StatusOr<double> TapeLibrary::WriteForward(int d, int64_t count) {
  // Streaming writes move the transport exactly like streaming reads; the
  // drive formats as it goes.
  SERPENTINE_RETURN_IF_ERROR(
      AnnotateStatus(RequireMounted(d), "WriteForward"));
  return ReadForward(d, count);
}

void TapeLibrary::Work(int d, double seconds) {
  SERPENTINE_CHECK_GE(seconds, 0.0);
  Spend(bay(d), seconds);
}

void TapeLibrary::Idle(int d, double seconds) {
  SERPENTINE_CHECK_GE(seconds, 0.0);
  bay(d).clock_seconds += seconds;
}

}  // namespace serpentine::store
