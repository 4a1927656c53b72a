// MeteredDrive: the observability seed — a transparent decorator that
// counts operations, accumulates per-phase seconds, and keeps log-scale
// latency histograms, without changing a single reported time. Where it
// sits in the stack decides what it sees: Metered(Fault(Model)) records
// what execution experienced (faults, recovery time), Fault(Metered(Model))
// records only the useful work the fault layer let through.
#ifndef SERPENTINE_DRIVE_METERED_DRIVE_H_
#define SERPENTINE_DRIVE_METERED_DRIVE_H_

#include <cstdint>
#include <string>

#include "serpentine/drive/drive.h"
#include "serpentine/obs/histogram.h"

namespace serpentine::obs {
class MetricsRegistry;
}  // namespace serpentine::obs

namespace serpentine::drive {

/// The log₂-bucket latency histogram, now hosted in obs/ (this alias keeps
/// the original drive-layer spelling working; obs::Histogram adds the
/// quantile/merge API the metrics registry exports).
using LatencyHistogram = obs::Histogram;

/// Everything a MeteredDrive has observed. Phase-seconds accumulate in op
/// order, so for a fault-free execution they equal the corresponding
/// ExecutionResult fields bit for bit.
struct DriveMetrics {
  int64_t locates = 0;
  int64_t reads = 0;
  int64_t scans = 0;
  int64_t deliveries = 0;
  int64_t rewinds = 0;
  int64_t segments_read = 0;

  double locate_seconds = 0.0;
  double read_seconds = 0.0;
  double rewind_seconds = 0.0;
  double recovery_seconds = 0.0;

  /// Non-kOk op results observed, by class.
  int64_t transient_read_errors = 0;
  int64_t locate_overshoots = 0;
  int64_t drive_resets = 0;
  int64_t permanent_errors = 0;
  int64_t faults() const {
    return transient_read_errors + locate_overshoots + drive_resets +
           permanent_errors;
  }
  /// Ops a HealthDrive circuit breaker refused while open (kCircuitOpen).
  /// Not a fault: the drive never saw the op. The cooldown each refusal
  /// charges accumulates in recovery_seconds.
  int64_t breaker_fast_fails = 0;

  int64_t ops() const { return locates + reads + scans + deliveries + rewinds; }
  double busy_seconds() const {
    return locate_seconds + read_seconds + rewind_seconds + recovery_seconds;
  }

  LatencyHistogram locate_latency;
  LatencyHistogram read_latency;

  /// One JSON object (no trailing newline) with counters, phase seconds,
  /// and the non-empty histogram buckets — the op-count record
  /// tools/run_benches.sh writes next to its timing JSONL.
  std::string ToJson(const std::string& label) const;

  /// Publishes every field into `registry` under `prefix`: op counts and
  /// fault counts as counters ("<prefix>.locates", ...; added, so repeated
  /// publishes accumulate), phase seconds as gauges
  /// ("<prefix>.locate_seconds", ...; overwritten), and the latency
  /// histograms merged into "<prefix>.locate_latency" /
  /// "<prefix>.read_latency" — the bridge from a drive stack's meters to
  /// the --metrics-json snapshot; see docs/observability.md for the
  /// catalog.
  void PublishTo(obs::MetricsRegistry& registry,
                 const std::string& prefix) const;
};

/// Pass-through decorator that meters every operation of the wrapped
/// drive. Results are returned unmodified.
class MeteredDrive : public Drive {
 public:
  /// `inner` must outlive this decorator.
  explicit MeteredDrive(Drive* inner) : inner_(inner) {}

  OpResult Locate(tape::SegmentId dst) override;
  OpResult ReadSegments(tape::SegmentId from, tape::SegmentId to) override;
  OpResult ScanSegments(tape::SegmentId from, tape::SegmentId to) override;
  OpResult DeliverSpan(tape::SegmentId from, tape::SegmentId to) override;
  OpResult Rewind() override;

  tape::SegmentId Position() const override { return inner_->Position(); }
  void SetPosition(tape::SegmentId position) override {
    inner_->SetPosition(position);
  }
  const tape::LocateModel& model() const override { return inner_->model(); }

  const DriveMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = DriveMetrics{}; }

 private:
  /// Folds one op result into the meters (shared fault/recovery
  /// bookkeeping; phase buckets are handled per op).
  void Observe(const OpResult& r);

  Drive* inner_;
  DriveMetrics metrics_;
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_METERED_DRIVE_H_
