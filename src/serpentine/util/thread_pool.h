// Fixed-size worker pool for the simulation harness. Experiments fan
// independent trials out over a pool and merge per-shard accumulators in a
// fixed order, so the reported statistics are bit-identical no matter how
// many threads actually ran (see docs/performance.md for the contract).
#ifndef SERPENTINE_UTIL_THREAD_POOL_H_
#define SERPENTINE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serpentine/util/env.h"
#include "serpentine/util/statusor.h"

namespace serpentine {

/// A fixed-size pool of worker threads consuming a FIFO task queue. The
/// destructor finishes every queued task, then joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not throw; wrap fallible work in
  /// ParallelFor, which captures and rethrows on the calling thread.
  void Schedule(std::function<void()> task);

  /// Process-wide pool sized by ResolveThreadCount(0) on first use
  /// (SERPENTINE_THREADS, or all hardware threads). Never destroyed before
  /// outstanding ParallelFor calls return.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(shard)` for every shard in [0, shards), using at most
/// `max_workers` pool workers, and blocks until all shards finish. Shards
/// are claimed dynamically, so callers must not depend on execution order;
/// determinism comes from each shard writing only its own output slot.
///
/// Runs inline on the calling thread when `pool` is null, `max_workers`
/// <= 1, or there is a single shard. If any shard throws, the first
/// exception is rethrown on the calling thread after all shards complete.
void ParallelFor(ThreadPool* pool, int64_t shards, int max_workers,
                 const std::function<void(int64_t)>& fn);

/// The replication fan-out of every RunReplicated* driver: runs `run(r)`,
/// which returns StatusOr<Result>, for each replica r in [0,
/// replications) over up to ResolveThreadCount(threads) shared-pool
/// workers (one when `concurrent` is false), and returns the results in
/// replica order — or the first failure in replica order, so the outcome
/// never depends on which worker finished first.
template <typename Result, typename Run>
StatusOr<std::vector<Result>> RunReplicas(int replications, int threads,
                                          bool concurrent, const Run& run) {
  if (replications < 1) {
    return InvalidArgumentError("replications must be >= 1, got " +
                                std::to_string(replications));
  }
  std::vector<std::optional<StatusOr<Result>>> slots(replications);
  ParallelFor(&ThreadPool::Shared(), replications,
              concurrent ? ResolveThreadCount(threads) : 1,
              [&](int64_t r) { slots[r].emplace(run(r)); });
  std::vector<Result> results;
  results.reserve(replications);
  for (std::optional<StatusOr<Result>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    results.push_back(std::move(*slot).value());
  }
  return results;
}

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_THREAD_POOL_H_
