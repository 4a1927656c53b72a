#include "serpentine/sched/registry.h"

#include <cctype>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/internal.h"
#include "serpentine/sched/local_search.h"
#include "serpentine/tsp/exact.h"

namespace serpentine::sched {
namespace {

std::string UppercaseLabel(std::string_view name) {
  std::string label;
  label.reserve(name.size());
  for (char c : name) {
    label.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return label;
}

/// `schedule`, or the same requests in one ascending pass when that
/// prices strictly cheaper.
Schedule BoundByOnePass(const tape::LocateModel& model, Schedule schedule) {
  if (schedule.full_tape_scan || schedule.order.size() < 2) return schedule;
  Schedule pass = schedule;
  pass.order = internal::ScheduleSort(std::move(pass.order));
  if (pass.order == schedule.order) return schedule;
  if (EstimateScheduleSeconds(model, pass) <
      EstimateScheduleSeconds(model, schedule)) {
    return pass;
  }
  return schedule;
}

}  // namespace

void Registry::Register(RegistryEntry entry) {
  if (entry.label.empty()) entry.label = UppercaseLabel(entry.name);
  if (!entry.build) {
    Algorithm algorithm = entry.algorithm;
    entry.build = [algorithm](const tape::LocateModel& model,
                              tape::SegmentId initial_position,
                              std::vector<Request> requests,
                              const SchedulerOptions& options) {
      return BuildSchedule(model, initial_position, std::move(requests),
                           algorithm, options);
    };
  }
  // Every registry-built schedule is bounded by READ (paper §8): the
  // ascending single pass streams the gaps it would otherwise locate over,
  // so it never costs more than reading the whole tape. Of the entry's own
  // schedule and that pass, the build returns the cheaper, both priced by
  // the step planner. READ is the bound itself and is exempt.
  if (entry.algorithm != Algorithm::kRead) {
    entry.build = [inner = std::move(entry.build)](
                      const tape::LocateModel& model,
                      tape::SegmentId initial_position,
                      std::vector<Request> requests,
                      const SchedulerOptions& options)
        -> serpentine::StatusOr<Schedule> {
      SERPENTINE_ASSIGN_OR_RETURN(
          Schedule schedule,
          inner(model, initial_position, std::move(requests), options));
      return BoundByOnePass(model, std::move(schedule));
    };
  }
  // Every registry-built schedule reports its scheduling CPU as a
  // wall-clock span "build:<name>" (category "sched") and bumps
  // "sched.builds.<name>" — one relaxed atomic load each when
  // observability is off.
  entry.build = [name = entry.name, inner = std::move(entry.build)](
                    const tape::LocateModel& model,
                    tape::SegmentId initial_position,
                    std::vector<Request> requests,
                    const SchedulerOptions& options) {
    if (obs::TraceRecorder::active() == nullptr &&
        obs::MetricsRegistry::active() == nullptr) {
      return inner(model, initial_position, std::move(requests), options);
    }
    obs::ScopedSpan span("sched", "build:" + name);
    obs::IncrementCounter("sched.builds." + name);
    return inner(model, initial_position, std::move(requests), options);
  };
  for (RegistryEntry& existing : entries_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  entries_.push_back(std::move(entry));
}

const RegistryEntry* Registry::Find(std::string_view name) const {
  for (const RegistryEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

serpentine::StatusOr<const RegistryEntry*> Registry::Resolve(
    std::string_view name) const {
  if (const RegistryEntry* entry = Find(name)) return entry;
  std::string known;
  for (const RegistryEntry& entry : entries_) {
    if (!known.empty()) known += "|";
    known += entry.name;
  }
  return InvalidArgumentError("unknown scheduler: \"" + std::string(name) +
                              "\" (registered: " + known + ")");
}

serpentine::StatusOr<Schedule> Registry::Build(
    const tape::LocateModel& model, tape::SegmentId initial_position,
    std::vector<Request> requests, std::string_view name) const {
  SERPENTINE_ASSIGN_OR_RETURN(const RegistryEntry* entry, Resolve(name));
  return entry->build(model, initial_position, std::move(requests),
                      entry->options);
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const RegistryEntry& entry : entries_) out.push_back(entry.name);
  return out;
}

const Registry& Registry::Default() {
  static const Registry* const registry = [] {
    auto* r = new Registry();
    struct Base {
      Algorithm algorithm;
      std::string description;
    };
    const Base bases[] = {
        {Algorithm::kRead, "full-tape sequential scan, then rewind"},
        {Algorithm::kFifo, "service in arrival order"},
        {Algorithm::kOpt, "exact optimum (n <= " +
                              std::to_string(tsp::kMaxHeldKarpCities) + ")"},
        {Algorithm::kSort, "ascending segment number"},
        {Algorithm::kSltf, "shortest locate time first (section-based)"},
        {Algorithm::kScan, "elevator over (track, section)"},
        {Algorithm::kWeave, "predefined section ordering"},
        {Algorithm::kLoss, "greedy maximal-loss edge selection"},
        {Algorithm::kSparseLoss, "LOSS on a sparse weave-order graph"},
    };
    for (const Base& base : bases) {
      RegistryEntry entry;
      entry.name = AlgorithmName(base.algorithm);
      entry.algorithm = base.algorithm;
      entry.description = base.description;
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "loss-coalesced";
      entry.label = "LOSS+C";
      entry.algorithm = Algorithm::kLoss;
      entry.options.loss_coalesce_threshold = kDefaultCoalesceThreshold;
      entry.description =
          "LOSS with the paper's recommended coalescing threshold";
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "sltf-naive";
      entry.label = "SLTF(n2)";
      entry.algorithm = Algorithm::kSltf;
      entry.options.sltf_naive = true;
      entry.description = "textbook O(n^2) greedy SLTF";
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "ltsp-exact";
      entry.label = "LTSP";
      entry.algorithm = Algorithm::kLoss;
      entry.description =
          "exact line-TSP interval DP (optimal under linear locate costs; "
          "small-n correctness oracle)";
      entry.build = [](const tape::LocateModel& model,
                       tape::SegmentId initial_position,
                       std::vector<Request> requests,
                       const SchedulerOptions& options)
          -> serpentine::StatusOr<Schedule> {
        Schedule schedule;
        schedule.algorithm = Algorithm::kLoss;
        schedule.initial_position = initial_position;
        SERPENTINE_ASSIGN_OR_RETURN(
            schedule.order,
            internal::ScheduleLtsp(model, initial_position,
                                   std::move(requests),
                                   options.loss_coalesce_threshold));
        return schedule;
      };
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "loss-mt";
      entry.label = "LOSS-MT";
      entry.algorithm = Algorithm::kLoss;
      entry.options.construction_workers = 0;  // auto
      entry.description =
          "partitioned parallel LOSS (bit-identical for any worker count)";
      entry.build = [](const tape::LocateModel& model,
                       tape::SegmentId initial_position,
                       std::vector<Request> requests,
                       const SchedulerOptions& options)
          -> serpentine::StatusOr<Schedule> {
        Schedule schedule;
        schedule.algorithm = Algorithm::kLoss;
        schedule.initial_position = initial_position;
        schedule.order = internal::ScheduleLossPartitioned(
            model, initial_position, std::move(requests),
            options.loss_coalesce_threshold, options.loss_partition_size,
            options.construction_workers);
        return schedule;
      };
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "loss-mt-oropt";
      entry.label = "LOSS-MT+OR";
      entry.algorithm = Algorithm::kLoss;
      entry.options.construction_workers = 0;  // auto
      entry.description =
          "partitioned parallel LOSS polished by windowed incremental "
          "Or-opt";
      entry.build = [](const tape::LocateModel& model,
                       tape::SegmentId initial_position,
                       std::vector<Request> requests,
                       const SchedulerOptions& options)
          -> serpentine::StatusOr<Schedule> {
        Schedule schedule;
        schedule.algorithm = Algorithm::kLoss;
        schedule.initial_position = initial_position;
        schedule.order = internal::ScheduleLossPartitioned(
            model, initial_position, std::move(requests),
            options.loss_coalesce_threshold, options.loss_partition_size,
            options.construction_workers);
        LocalSearchOptions search;
        search.insertion_window = 64;
        ImproveSchedule(model, &schedule, search);
        return schedule;
      };
      r->Register(std::move(entry));
    }
    {
      RegistryEntry entry;
      entry.name = "opt-small";
      entry.algorithm = Algorithm::kLoss;
      entry.description = "exact optimum for n <= " +
                          std::to_string(kOptSmallMaxRequests) +
                          ", LOSS above (the paper's section 5 rule)";
      entry.build = [](const tape::LocateModel& model,
                       tape::SegmentId initial_position,
                       std::vector<Request> requests,
                       const SchedulerOptions& options) {
        Algorithm algorithm =
            static_cast<int>(requests.size()) <= kOptSmallMaxRequests
                ? Algorithm::kOpt
                : Algorithm::kLoss;
        return BuildSchedule(model, initial_position, std::move(requests),
                             algorithm, options);
      };
      r->Register(std::move(entry));
    }
    return r;
  }();
  return *registry;
}

}  // namespace serpentine::sched
