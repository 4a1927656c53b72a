#include "serpentine/sched/coalesce.h"

#include <algorithm>

#include "serpentine/util/check.h"

namespace serpentine::sched {

std::vector<CoalescedGroup> CoalesceRequests(std::vector<Request> requests,
                                             int64_t threshold) {
  std::vector<CoalescedGroup> groups;
  if (requests.empty()) return groups;
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.segment < b.segment;
            });
  groups.emplace_back(requests.front());
  for (size_t i = 1; i < requests.size(); ++i) {
    // The paper coalesces on the gap between sorted *request* positions;
    // with multi-segment requests we measure from the furthest segment
    // the group already transfers.
    int64_t gap = requests[i].segment - groups.back().last();
    if (threshold > 0 && gap < threshold) {
      groups.back().Add(requests[i]);
    } else {
      groups.emplace_back(requests[i]);
    }
  }
  return groups;
}

std::vector<Request> FlattenGroups(const std::vector<CoalescedGroup>& groups,
                                   const std::vector<int>& visit_order) {
  SERPENTINE_CHECK_EQ(groups.size(), visit_order.size());
  std::vector<Request> out;
  size_t total = 0;
  for (const auto& group : groups) total += group.members.size();
  out.reserve(total);
  for (int g : visit_order) {
    const auto& members = groups[g].members;
    out.insert(out.end(), members.begin(), members.end());
  }
  return out;
}

}  // namespace serpentine::sched
