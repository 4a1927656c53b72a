// Request and Schedule types shared by all scheduling algorithms.
#ifndef SERPENTINE_SCHED_REQUEST_H_
#define SERPENTINE_SCHED_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "serpentine/tape/types.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sched {

/// One retrieval request: `count` consecutive segments starting at
/// `segment`. The paper's experiments use single-segment requests ("the
/// extension to multi-segment reads is trivial" — it only moves the head's
/// out-position); the store layer uses larger counts.
struct Request {
  tape::SegmentId segment = 0;
  int64_t count = 1;

  /// Head position when positioned to read this request.
  tape::SegmentId in() const { return segment; }
  /// Last segment transferred.
  tape::SegmentId last() const { return segment + count - 1; }

  bool operator==(const Request&) const = default;
};

/// The scheduling algorithms of the paper (§4).
enum class Algorithm {
  kRead,       ///< read the entire tape sequentially, then rewind
  kFifo,       ///< service requests in arrival order
  kSort,       ///< ascending segment number (optimal for helical scan)
  kOpt,        ///< exact optimum (exponential; n ≤ ~12)
  kSltf,       ///< shortest locate time first (greedy nearest-next)
  kScan,       ///< elevator over (track, section)
  kWeave,      ///< predefined section ordering, no locate-time queries
  kLoss,       ///< greedy asymmetric-TSP edge selection by maximal loss
  kSparseLoss  ///< LOSS on a weave-order sparse graph + path contraction
};

/// Stable lowercase name ("loss", "sltf", ...).
const char* AlgorithmName(Algorithm a);

/// Inverse of AlgorithmName: parses "loss", "sltf", "sparse-loss", ... into
/// the enum. InvalidArgument (listing the valid names) for anything else.
/// The single parsing point for CLI flags, bench labels, and the scheduler
/// registry.
serpentine::StatusOr<Algorithm> AlgorithmFromString(std::string_view name);

/// All algorithms, in the order the paper introduces them.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kRead, Algorithm::kFifo,  Algorithm::kOpt,
    Algorithm::kSort, Algorithm::kSltf,  Algorithm::kScan,
    Algorithm::kWeave, Algorithm::kLoss, Algorithm::kSparseLoss,
};

/// A service order for a batch of requests.
struct Schedule {
  Algorithm algorithm = Algorithm::kFifo;
  /// Head position (segment number) when execution begins.
  tape::SegmentId initial_position = 0;
  /// Requests in delivery order. How the drive reaches each one (locate,
  /// stream through the gap, or deliver from the pass already read) is
  /// decided by sched::StepPlanner. For READ schedules this is the
  /// ascending delivery order, but execution is a full-tape scan.
  std::vector<Request> order;
  /// True for READ: execution reads the whole tape and rewinds, regardless
  /// of the request list.
  bool full_tape_scan = false;
};

/// True iff `schedule.order` is a permutation of `requests` (same multiset).
bool IsPermutationOfRequests(const Schedule& schedule,
                             const std::vector<Request>& requests);

/// Matches executed requests back to the submissions they serve. Identical
/// submissions complete oldest first: each Take(r) returns the index, in
/// the vector the matcher was built from, of the oldest submission equal
/// to `r` that no earlier Take returned.
class OldestFirstMatcher {
 public:
  explicit OldestFirstMatcher(const std::vector<Request>& submitted);

  /// CHECK-fails when every submission equal to `r` is already taken.
  size_t Take(const Request& r);

 private:
  /// (request, submission index), sorted by both: equal requests form one
  /// run in submission order.
  std::vector<std::pair<Request, size_t>> slots_;
  /// At each run's first slot: how many of the run are taken.
  std::vector<size_t> taken_;
};

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_REQUEST_H_
