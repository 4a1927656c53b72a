// A robotic tape library: N drives, many cartridges, ONE robot arm, and
// per-drive virtual clocks. Mount/unmount semantics follow the paper:
// single-reel cartridges (DLT, IBM 3590) must rewind before ejecting
// (footnote 5), so every fresh mount starts at the beginning of tape — the
// Fig 5 scenario. Drives read independently (each bay has its own clock),
// but every cartridge exchange is serialized through the shared robot: a
// drive whose exchange request arrives while the robot is busy waits until
// the robot frees up (the wait is accounted separately from busy time).
#ifndef SERPENTINE_STORE_TAPE_LIBRARY_H_
#define SERPENTINE_STORE_TAPE_LIBRARY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/health_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/retry.h"
#include "serpentine/util/status.h"
#include "serpentine/util/statusor.h"

namespace serpentine::store {

/// Robot and drive exchange timings (seconds). Defaults approximate a
/// small DLT autoloader.
struct LibraryTimings {
  /// Robot arm travel + grip, per cartridge movement.
  double robot_exchange_seconds = 15.0;
  /// Drive load: thread tape, calibrate.
  double load_seconds = 40.0;
  /// Drive unload after the mandatory rewind.
  double unload_seconds = 20.0;
};

/// N drives + M cartridges + one robot, with per-drive virtual clocks.
///
/// All motion (mounting, locating, reading, rewinding) advances the acting
/// drive's clock according to each cartridge's locate-time model. The
/// single-drive methods (no drive index) operate on drive 0, preserving
/// the historical one-drive API; a library constructed with `drives == 1`
/// behaves exactly as it always has.
class TapeLibrary {
 public:
  /// Builds a library of `cartridges` tapes in one geometry family, each
  /// generated from consecutive seeds, sharing one drive timing profile.
  TapeLibrary(const tape::TapeParams& params, int cartridges,
              tape::DriveTimings timings, LibraryTimings library_timings = {},
              int32_t first_seed = 1, int drives = 1);

  /// Builds a library over caller-supplied models — one per cartridge, any
  /// mix of geometry families (DLT serpentine next to helical, say).
  TapeLibrary(std::vector<std::unique_ptr<tape::LocateModel>> models,
              LibraryTimings library_timings = {}, int drives = 1);

  int num_cartridges() const { return static_cast<int>(models_.size()); }
  int num_drives() const { return static_cast<int>(bays_.size()); }

  /// The locate model (and geometry) of cartridge `tape`.
  const tape::LocateModel& model(int tape) const;

  /// Index of the cartridge mounted in drive `d`, or -1.
  int mounted(int d) const { return bay(d).mounted; }
  int mounted() const { return mounted(0); }

  /// Drive `d`'s mounted cartridge as a stateful drive::Drive (head
  /// position and per-op timing), or nullptr when that bay is empty.
  /// Callers may stack decorators on it or hand it to an executor; its
  /// motion does NOT advance the library clock — charge it with Work(), or
  /// use the clocked LocateTo / ReadForward wrappers.
  drive::Drive* mounted_drive(int d) { return bays_[CheckDrive(d)].head.get(); }
  drive::Drive* mounted_drive() { return mounted_drive(0); }

  /// Current head position on drive `d`'s mounted tape.
  tape::SegmentId head_position(int d) const {
    const DriveBay& b = bay(d);
    return b.head != nullptr ? b.head->Position() : 0;
  }
  tape::SegmentId head_position() const { return head_position(0); }

  /// Drive `d`'s virtual time in seconds since construction.
  double now(int d) const { return bay(d).clock_seconds; }
  /// Library-wide virtual time: the most advanced drive clock.
  double now() const;

  /// Attaches a fault process to the robot/drive exchange: each mount
  /// attempt may fail (FaultProfile::mount_failure_rate) and is retried
  /// with backoff per `retry`; every failed attempt costs the profile's
  /// mount_retry_seconds plus the backoff on the virtual clock. Pass
  /// nullptr to detach. The injector is borrowed, not owned, and shared by
  /// every drive (one robot, one fault process).
  void SetMountFaults(drive::FaultInjector* injector, RetryPolicy retry = {});

  /// Arms a circuit breaker over the robot/drive exchange: every mount
  /// attempt's outcome feeds the breaker's rolling window, and while it is
  /// open Mount() fails fast with Unavailable — no robot motion, no clock
  /// spend, no fault draws — instead of burning a full retry schedule
  /// against a robot that keeps dropping cartridges. The breaker runs on
  /// the library's virtual clock (monotone across drives), so Idle() (or
  /// any clocked work) ages the cooldown. `policy` must pass
  /// ValidateBreakerPolicy (checked).
  void EnableMountBreaker(const drive::BreakerPolicy& policy);
  void DisableMountBreaker() { mount_breaker_.reset(); }
  /// The armed breaker, or nullptr.
  const drive::CircuitBreaker* mount_breaker() const {
    return mount_breaker_.get();
  }

  /// Mounts cartridge `tape` into drive `d` (unmounting that drive's
  /// current cartridge first: rewind, unload, robot exchange, load). No-op
  /// if already mounted there; FailedPrecondition if another drive holds
  /// it. The head is at segment 0 after a fresh mount. The robot section
  /// (exchange + load, failed attempts included) is serialized against the
  /// other drives' exchanges: if the robot is mid-exchange elsewhere, drive
  /// `d` first waits (robot_wait_seconds). Under an attached fault process
  /// the mount is retried with backoff; exhausting the retry budget returns
  /// ResourceExhausted with the cartridge and attempt count in the message.
  serpentine::Status Mount(int d, int tape);
  serpentine::Status Mount(int tape) { return Mount(0, tape); }

  /// Rewinds, unloads, and returns drive `d`'s cartridge to its slot.
  serpentine::Status Unmount(int d);
  serpentine::Status Unmount() { return Unmount(0); }

  /// Positions drive `d`'s head at `segment` on its mounted tape (locate).
  /// Returns the seconds the operation took.
  serpentine::StatusOr<double> LocateTo(int d, tape::SegmentId segment);
  serpentine::StatusOr<double> LocateTo(tape::SegmentId segment) {
    return LocateTo(0, segment);
  }

  /// Reads `count` segments from drive `d`'s head position; the head ends
  /// just past the span. Returns the seconds taken.
  serpentine::StatusOr<double> ReadForward(int d, int64_t count);
  serpentine::StatusOr<double> ReadForward(int64_t count) {
    return ReadForward(0, count);
  }

  /// Writes `count` segments at drive `d`'s head position (sequential
  /// streaming, same transport speed as reading). Returns the seconds
  /// taken.
  serpentine::StatusOr<double> WriteForward(int d, int64_t count);
  serpentine::StatusOr<double> WriteForward(int64_t count) {
    return WriteForward(0, count);
  }

  /// Advances drive `d`'s clock and busy time by `seconds` of work done
  /// directly on mounted_drive(d), such as a schedule an executor ran
  /// there.
  void Work(int d, double seconds);
  void Work(double seconds) { Work(0, seconds); }

  /// Advances drive `d`'s clock without drive activity (idle / host time).
  void Idle(int d, double seconds);
  void Idle(double seconds) { Idle(0, seconds); }

  /// Lifetime counters (library-wide).
  int64_t total_mounts() const { return total_mounts_; }
  /// Failed robot/load attempts that were retried (fault injection only).
  int64_t mount_retries() const { return mount_retries_; }
  /// Mounts refused fast by an open mount breaker.
  int64_t mount_fast_fails() const { return mount_fast_fails_; }
  /// Completed robot occupations (mount and unmount exchanges).
  int64_t robot_exchanges() const { return robot_exchanges_; }
  /// Seconds drives spent queued for the shared robot (not busy time).
  double robot_wait_seconds() const { return robot_wait_seconds_; }
  double busy_seconds(int d) const { return bay(d).busy_seconds; }
  /// Summed busy seconds across all drives.
  double busy_seconds() const;

 private:
  struct DriveBay {
    int mounted = -1;
    /// Head of the mounted cartridge; null while unmounted. Fresh mounts
    /// start at BOT (single-reel cartridges eject rewound).
    std::unique_ptr<drive::ModelDrive> head;
    double clock_seconds = 0.0;
    double busy_seconds = 0.0;
  };

  int CheckDrive(int d) const;
  const DriveBay& bay(int d) const { return bays_[CheckDrive(d)]; }
  DriveBay& bay(int d) { return bays_[CheckDrive(d)]; }
  serpentine::Status RequireMounted(int d) const;
  serpentine::Status ValidateTape(int tape) const;
  /// Drive currently holding cartridge `tape`, or -1.
  int HolderOf(int tape) const;
  void Spend(DriveBay& b, double seconds) {
    b.clock_seconds += seconds;
    b.busy_seconds += seconds;
  }
  /// Stalls drive `d` until the shared robot is free; the stall is
  /// recorded as robot wait, not busy time. With one drive the robot is
  /// never contended, so this is a no-op.
  void WaitForRobot(DriveBay& b);
  /// Releases the robot at drive `b`'s current clock.
  void ReleaseRobot(const DriveBay& b);
  /// Monotone library-wide time for the mount breaker (a drive's clock may
  /// trail another's; the breaker contract requires non-decreasing `now`).
  double BreakerNow(const DriveBay& b);

  std::vector<std::unique_ptr<tape::LocateModel>> models_;
  LibraryTimings library_timings_;
  std::vector<DriveBay> bays_;
  /// Virtual time at which the shared robot finishes its current exchange.
  double robot_free_at_ = 0.0;
  double robot_wait_seconds_ = 0.0;
  int64_t robot_exchanges_ = 0;
  int64_t total_mounts_ = 0;
  int64_t mount_retries_ = 0;
  drive::FaultInjector* fault_injector_ = nullptr;  // borrowed; may be null
  RetryPolicy mount_retry_;
  std::unique_ptr<drive::CircuitBreaker> mount_breaker_;  // null = disarmed
  double breaker_clock_ = 0.0;
  int64_t mount_fast_fails_ = 0;
};

}  // namespace serpentine::store

#endif  // SERPENTINE_STORE_TAPE_LIBRARY_H_
