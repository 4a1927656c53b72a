#include "serpentine/store/store.h"

#include <algorithm>

#include "serpentine/sched/estimator.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/check.h"

namespace serpentine::store {

TertiaryStore::TertiaryStore(StoreOptions options, TapeLibrary library)
    : options_(options),
      library_(std::move(library)),
      cache_(options.cache_segments) {
  end_of_data_.reserve(library_.num_cartridges());
  for (int t = 0; t < library_.num_cartridges(); ++t) {
    end_of_data_.push_back(
        options_.cartridges_start_empty
            ? 0
            : library_.model(t).geometry().total_segments());
  }
}

serpentine::StatusOr<tape::SegmentId> TertiaryStore::Append(int tape,
                                                            int64_t count) {
  if (tape < 0 || tape >= library_.num_cartridges()) {
    return InvalidArgumentError("no such cartridge: " + std::to_string(tape));
  }
  if (count <= 0) return InvalidArgumentError("count must be positive");
  tape::SegmentId eod = end_of_data_[tape];
  tape::SegmentId capacity =
      library_.model(tape).geometry().total_segments();
  if (eod + count > capacity) {
    return ResourceExhaustedError(
        "cartridge " + std::to_string(tape) + " has only " +
        std::to_string(capacity - eod) + " free segments");
  }
  SERPENTINE_RETURN_IF_ERROR(library_.Mount(tape));
  // Position at the end of data. A fresh mount leaves the head at 0, which
  // is already correct for the first append.
  if (library_.head_position() != eod) {
    SERPENTINE_RETURN_IF_ERROR(library_.LocateTo(eod).status());
  }
  SERPENTINE_RETURN_IF_ERROR(library_.WriteForward(count).status());
  end_of_data_[tape] = eod + count;
  return eod;
}

tape::SegmentId TertiaryStore::end_of_data(int tape) const {
  SERPENTINE_CHECK_GE(tape, 0);
  SERPENTINE_CHECK_LT(tape, static_cast<int>(end_of_data_.size()));
  return end_of_data_[tape];
}

serpentine::StatusOr<uint64_t> TertiaryStore::SubmitRead(
    int tape, tape::SegmentId segment, int64_t count) {
  if (tape < 0 || tape >= library_.num_cartridges()) {
    return InvalidArgumentError("no such cartridge: " + std::to_string(tape));
  }
  if (count <= 0) return InvalidArgumentError("count must be positive");
  if (segment < 0 || segment + count > end_of_data_[tape]) {
    return OutOfRangeError("read beyond end of data: segment " +
                           std::to_string(segment));
  }

  uint64_t id = next_id_++;
  sched::Request request{segment, count};

  // Cache check: a multi-segment request hits only if every segment is
  // resident (bounded scan; very large requests bypass the cache).
  bool hit = false;
  if (cache_.capacity() > 0 && count <= 64) {
    hit = true;
    for (int64_t i = 0; i < count && hit; ++i) {
      hit = cache_.Lookup(CacheKey{tape, segment + i});
    }
  }
  if (hit) {
    immediate_completions_.push_back(CompletedRead{
        id, tape, request, library_.now(), library_.now(), true});
    return id;
  }

  pending_by_tape_[tape].push_back(
      PendingRead{id, request, library_.now()});
  return id;
}

size_t TertiaryStore::pending() const {
  size_t n = 0;
  for (const auto& [tape, reads] : pending_by_tape_) n += reads.size();
  return n;
}

serpentine::StatusOr<FlushReport> TertiaryStore::Flush() {
  FlushReport report;
  report.completed = std::move(immediate_completions_);
  immediate_completions_.clear();

  double start = library_.now();

  // Mount order: most pending requests first, so the biggest batches get
  // the earliest service (cf. mount scheduling in tertiary-memory DBMS
  // work the paper cites, [Sar95]/[SS96]).
  std::vector<int> tapes;
  tapes.reserve(pending_by_tape_.size());
  for (const auto& [tape, reads] : pending_by_tape_) tapes.push_back(tape);
  std::sort(tapes.begin(), tapes.end(), [&](int a, int b) {
    size_t na = pending_by_tape_[a].size(), nb = pending_by_tape_[b].size();
    return na != nb ? na > nb : a < b;
  });

  for (int tape : tapes) {
    SERPENTINE_RETURN_IF_ERROR(
        FlushTape(tape, std::move(pending_by_tape_[tape]), &report));
  }
  pending_by_tape_.clear();

  report.elapsed_seconds = library_.now() - start;
  double sum = 0.0;
  for (const CompletedRead& c : report.completed) {
    sum += c.response_seconds();
    report.max_response_seconds =
        std::max(report.max_response_seconds, c.response_seconds());
    report.segments_read += c.cache_hit ? 0 : c.request.count;
  }
  if (!report.completed.empty()) {
    report.mean_response_seconds = sum / report.completed.size();
  }
  return report;
}

serpentine::Status TertiaryStore::FlushTape(int tape,
                                            std::vector<PendingRead> batch,
                                            FlushReport* report) {
  if (batch.empty()) return OkStatus();
  const tape::LocateModel& model = library_.model(tape);

  int before_mounts = static_cast<int>(library_.total_mounts());
  SERPENTINE_RETURN_IF_ERROR(library_.Mount(tape));
  report->mounts += static_cast<int>(library_.total_mounts()) - before_mounts;

  std::vector<sched::Request> requests;
  requests.reserve(batch.size());
  for (const PendingRead& p : batch) requests.push_back(p.request);

  sched::Algorithm algorithm = options_.algorithm;
  if (options_.opt_cutoff > 0 &&
      static_cast<int>(requests.size()) <= options_.opt_cutoff) {
    algorithm = sched::Algorithm::kOpt;
  }
  SERPENTINE_ASSIGN_OR_RETURN(
      sched::Schedule schedule,
      sched::BuildSchedule(model, library_.head_position(), requests,
                           algorithm, options_.scheduler_options));

  // The paper's crossover: beyond ~1536 uniform requests a LOSS schedule
  // is no faster than reading the whole tape.
  if (options_.auto_full_read &&
      sched::EstimateScheduleSeconds(model, schedule) >
          model.FullReadAndRewindSeconds()) {
    ++report->full_scans;
    schedule.full_tape_scan = true;
  }

  // Run the schedule on the mounted drive; each completion is stamped
  // when its step ends (a full-tape pass first moves the head home).
  drive::Drive& drive = *library_.mounted_drive();
  double lead = schedule.full_tape_scan
                    ? model.LocateSeconds(drive.Position(), 0)
                    : 0.0;
  double clock = library_.now() + lead;
  std::map<std::pair<tape::SegmentId, int64_t>, std::vector<size_t>>
      by_request;
  for (size_t i = 0; i < batch.size(); ++i) {
    by_request[{batch[i].request.segment, batch[i].request.count}]
        .push_back(i);
  }
  sim::RecoveringExecutionResult run =
      sim::RecoveringExecutor(drive, model)
          .Execute(schedule, [&](const sched::Request& r, double step, bool) {
            clock += step;
            auto& ids = by_request[{r.segment, r.count}];
            SERPENTINE_CHECK(!ids.empty());
            const PendingRead& p = batch[ids.back()];
            ids.pop_back();
            report->completed.push_back(CompletedRead{
                p.id, tape, p.request, p.submit_seconds, clock, false});
            for (int64_t i = 0; i < r.count && i < 64; ++i) {
              cache_.Insert(CacheKey{tape, r.segment + i});
            }
          });
  library_.Work(lead + run.total_seconds);
  return OkStatus();
}

}  // namespace serpentine::store
