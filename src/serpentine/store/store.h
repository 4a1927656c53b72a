// TertiaryStore: the online tertiary storage system the paper works toward
// (§1, §8) — asynchronous reads against a robotic tape library, batched and
// executed with the paper's scheduling algorithms, behind an LRU segment
// cache.
#ifndef SERPENTINE_STORE_STORE_H_
#define SERPENTINE_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/store/segment_cache.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/util/statusor.h"

namespace serpentine::store {

/// Store-level policy.
struct StoreOptions {
  /// Scheduling algorithm for each per-tape batch (paper's guidance: LOSS;
  /// OPT engages automatically for batches it can solve exactly).
  sched::Algorithm algorithm = sched::Algorithm::kLoss;
  sched::SchedulerOptions scheduler_options;
  /// Use OPT instead of `algorithm` for batches of at most this many
  /// requests (paper §5: "OPT is recommended for scheduling up to 10
  /// locates"). 0 disables.
  int opt_cutoff = 10;
  /// Cache capacity in segments (0 disables caching).
  size_t cache_segments = 8192;
  /// When a batch's scheduled execution would take longer than reading the
  /// entire tape, do the full read instead (paper §5: "for more than 1536
  /// requests just read the entire tape").
  bool auto_full_read = true;
  /// When true, cartridges start empty: data must be loaded with Append()
  /// and reads beyond the end of data are rejected. When false (the
  /// paper's setting) cartridges arrive fully written.
  bool cartridges_start_empty = false;
};

/// One finished read.
struct CompletedRead {
  uint64_t id = 0;
  int tape = 0;
  sched::Request request;
  double submit_seconds = 0.0;
  double complete_seconds = 0.0;
  bool cache_hit = false;

  double response_seconds() const { return complete_seconds - submit_seconds; }
};

/// Summary of one Flush.
struct FlushReport {
  std::vector<CompletedRead> completed;
  int mounts = 0;
  int full_scans = 0;
  double elapsed_seconds = 0.0;
  double mean_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  int64_t segments_read = 0;
};

/// Batching read store over a TapeLibrary.
///
/// Usage: SubmitRead() any number of requests (optionally interleaved with
/// library().Idle() to model arrival times), then Flush() to mount tapes,
/// schedule, and execute. Completion times are on the library's virtual
/// clock.
class TertiaryStore {
 public:
  TertiaryStore(StoreOptions options, TapeLibrary library);

  /// Enqueues a read of `count` segments starting at `segment` on
  /// cartridge `tape`. Cache hits complete immediately. Returns the
  /// request id.
  serpentine::StatusOr<uint64_t> SubmitRead(int tape,
                                            tape::SegmentId segment,
                                            int64_t count = 1);

  /// Appends `count` sequential segments to cartridge `tape` (the load
  /// path: mounts, positions at the end of data, streams the write).
  /// Synchronous — sequential writes are tape's native strength and need
  /// no scheduling. Returns the first segment of the new range.
  serpentine::StatusOr<tape::SegmentId> Append(int tape, int64_t count);

  /// Segments written so far on cartridge `tape` (== capacity when the
  /// store was built with pre-written cartridges).
  tape::SegmentId end_of_data(int tape) const;

  /// Pending (non-cache-hit) request count.
  size_t pending() const;

  /// Mounts, schedules, and executes everything pending. Tapes with more
  /// pending requests are mounted first. Each tape's schedule runs through
  /// sim::RecoveringExecutor on the mounted drive, so its drive time is
  /// what sched::EstimateScheduleSeconds prices.
  serpentine::StatusOr<FlushReport> Flush();

  TapeLibrary& library() { return library_; }
  const TapeLibrary& library() const { return library_; }
  const SegmentCache& cache() const { return cache_; }
  const StoreOptions& options() const { return options_; }

 private:
  struct PendingRead {
    uint64_t id;
    sched::Request request;
    double submit_seconds;
  };

  /// Executes one tape's batch; appends completions to `report`.
  serpentine::Status FlushTape(int tape, std::vector<PendingRead> batch,
                               FlushReport* report);

  StoreOptions options_;
  TapeLibrary library_;
  SegmentCache cache_;
  std::vector<tape::SegmentId> end_of_data_;
  std::map<int, std::vector<PendingRead>> pending_by_tape_;
  std::vector<CompletedRead> immediate_completions_;
  uint64_t next_id_ = 1;
};

}  // namespace serpentine::store

#endif  // SERPENTINE_STORE_STORE_H_
