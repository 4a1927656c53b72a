// Request coalescing (paper §4, SLTF/LOSS refinement): nearby requests are
// folded into a single representative so the quadratic schedulers work on
// far fewer cities. "Experiments show that 1410 (the size of 2 sections) is
// a good choice for T, and that the quality of the schedule is not highly
// sensitive to T."
#ifndef SERPENTINE_SCHED_COALESCE_H_
#define SERPENTINE_SCHED_COALESCE_H_

#include <algorithm>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/tape/types.h"

namespace serpentine::sched {

/// The paper's recommended coalescing threshold: two sections' worth of
/// segments.
inline constexpr int64_t kDefaultCoalesceThreshold = 1410;

/// A coalesced group: requests in ascending segment order that are serviced
/// consecutively as one unit.
struct CoalescedGroup {
  explicit CoalescedGroup(const Request& first)
      : members{first}, last_segment(first.last()) {}

  /// Members in ascending order of first segment.
  std::vector<Request> members;
  /// The furthest last() of any member: members are ordered by first
  /// segment only, so an early long request can reach past later ones.
  tape::SegmentId last_segment = 0;

  /// Appends a member (at or after the current ones' first segments).
  void Add(const Request& r) {
    members.push_back(r);
    last_segment = std::max(last_segment, r.last());
  }

  /// Head position required to begin servicing the group.
  tape::SegmentId in() const { return members.front().segment; }
  /// Last segment read while servicing the group.
  tape::SegmentId last() const { return last_segment; }
};

/// Coalesces `requests` (any order; sorted internally): walking the sorted
/// list, a request whose gap to its predecessor is below `threshold`
/// segments joins the predecessor's group, otherwise it opens a new group.
/// Groups are returned in ascending order of their first segment. The gap
/// is measured from the furthest segment the group reads, so overlapping
/// requests have negative gaps. A threshold of 0 puts every request in its
/// own group, overlapping or not.
std::vector<CoalescedGroup> CoalesceRequests(std::vector<Request> requests,
                                             int64_t threshold);

/// Flattens groups in the given visit order back into a request sequence.
std::vector<Request> FlattenGroups(const std::vector<CoalescedGroup>& groups,
                                   const std::vector<int>& visit_order);

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_COALESCE_H_
