#include "serpentine/sched/request.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "serpentine/util/check.h"

namespace serpentine::sched {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kRead:
      return "read";
    case Algorithm::kFifo:
      return "fifo";
    case Algorithm::kSort:
      return "sort";
    case Algorithm::kOpt:
      return "opt";
    case Algorithm::kSltf:
      return "sltf";
    case Algorithm::kScan:
      return "scan";
    case Algorithm::kWeave:
      return "weave";
    case Algorithm::kLoss:
      return "loss";
    case Algorithm::kSparseLoss:
      return "sparse-loss";
  }
  return "unknown";
}

serpentine::StatusOr<Algorithm> AlgorithmFromString(std::string_view name) {
  for (Algorithm a : kAllAlgorithms) {
    if (name == AlgorithmName(a)) return a;
  }
  std::string known;
  for (Algorithm a : kAllAlgorithms) {
    if (!known.empty()) known += "|";
    known += AlgorithmName(a);
  }
  return InvalidArgumentError("unknown algorithm: \"" + std::string(name) +
                              "\" (expected " + known + ")");
}

bool IsPermutationOfRequests(const Schedule& schedule,
                             const std::vector<Request>& requests) {
  if (schedule.order.size() != requests.size()) return false;
  auto key = [](const Request& r) {
    return std::make_pair(r.segment, r.count);
  };
  std::vector<std::pair<tape::SegmentId, int64_t>> a, b;
  a.reserve(requests.size());
  b.reserve(requests.size());
  for (const Request& r : schedule.order) a.push_back(key(r));
  for (const Request& r : requests) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

OldestFirstMatcher::OldestFirstMatcher(const std::vector<Request>& submitted)
    : taken_(submitted.size(), 0) {
  slots_.reserve(submitted.size());
  for (size_t i = 0; i < submitted.size(); ++i) {
    slots_.emplace_back(submitted[i], i);
  }
  std::sort(slots_.begin(), slots_.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.segment, a.first.count, a.second) <
           std::tie(b.first.segment, b.first.count, b.second);
  });
}

size_t OldestFirstMatcher::Take(const Request& r) {
  auto run = std::lower_bound(
      slots_.begin(), slots_.end(), r, [](const auto& slot, const Request& key) {
        return std::tie(slot.first.segment, slot.first.count) <
               std::tie(key.segment, key.count);
      });
  SERPENTINE_CHECK(run != slots_.end() && run->first == r);
  size_t first = static_cast<size_t>(run - slots_.begin());
  size_t i = first + taken_[first]++;
  SERPENTINE_CHECK(i < slots_.size() && slots_[i].first == r);
  return slots_[i].second;
}

}  // namespace serpentine::sched
