// Scheduler registry: named scheduler configurations (algorithm + default
// options + build factory) so tools and benches select schedulers by name
// instead of switching on the Algorithm enum in each binary.
//
// The default registry carries the paper's nine algorithms under their
// AlgorithmName spellings, plus the named variants the paper discusses:
// "loss-coalesced" (LOSS with the recommended 1410-segment coalescing
// threshold), "sltf-naive" (the textbook O(n²) greedy SLTF) and
// "opt-small" (the paper's §5 rule: OPT up to 10 requests, LOSS above).
#ifndef SERPENTINE_SCHED_REGISTRY_H_
#define SERPENTINE_SCHED_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sched {

/// Largest batch the "opt-small" entry hands to OPT (paper §5: "OPT is
/// recommended for scheduling up to 10 locates").
inline constexpr int kOptSmallMaxRequests = 10;

/// One registered scheduler configuration.
struct RegistryEntry {
  /// Lookup key ("loss", "sltf-naive", ...). Lowercase, stable.
  std::string name;
  /// Display label for tables and figures ("LOSS", "SLTF*", ...).
  std::string label;
  /// What the factory builds with.
  Algorithm algorithm = Algorithm::kFifo;
  SchedulerOptions options;
  /// One-line human description.
  std::string description;
  /// Schedule factory. Entries registered without one build via
  /// BuildSchedule(model, initial, requests, algorithm, options); custom
  /// factories may wrap that (pre/post-processing, option overrides).
  std::function<serpentine::StatusOr<Schedule>(
      const tape::LocateModel& model, tape::SegmentId initial_position,
      std::vector<Request> requests, const SchedulerOptions& options)>
      build;
};

/// Name → scheduler-configuration map with registration order preserved.
class Registry {
 public:
  Registry() = default;

  /// Adds `entry` (filling in a BuildSchedule-based factory if none is
  /// set). Re-registering a name replaces the earlier entry in place.
  /// The stored factory is READ-bounded: it returns the cheaper of the
  /// entry's schedule and the same requests in one ascending pass, both
  /// priced by EstimateScheduleSeconds (entries with Algorithm::kRead are
  /// the bound itself and build unchanged).
  void Register(RegistryEntry entry);

  /// The entry for `name`, or nullptr.
  const RegistryEntry* Find(std::string_view name) const;

  /// Find with a helpful InvalidArgument (listing registered names) on
  /// miss.
  serpentine::StatusOr<const RegistryEntry*> Resolve(
      std::string_view name) const;

  /// Builds a schedule with the named entry's factory and default options.
  serpentine::StatusOr<Schedule> Build(const tape::LocateModel& model,
                                       tape::SegmentId initial_position,
                                       std::vector<Request> requests,
                                       std::string_view name) const;

  /// All entries, in registration order.
  const std::vector<RegistryEntry>& entries() const { return entries_; }

  /// Registered names, in registration order (for usage strings).
  std::vector<std::string> names() const;

  /// The shared default registry: every Algorithm under its AlgorithmName,
  /// plus the named variants ("loss-coalesced", "sltf-naive", ...,
  /// "opt-small").
  static const Registry& Default();

 private:
  std::vector<RegistryEntry> entries_;
};

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_REGISTRY_H_
