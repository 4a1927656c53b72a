#include "serpentine/sched/request.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace serpentine::sched {
namespace {

TEST(RequestTest, InLastAndDefaults) {
  Request r{100, 1};
  EXPECT_EQ(r.in(), 100);
  EXPECT_EQ(r.last(), 100);
  Request wide{100, 32};
  EXPECT_EQ(wide.last(), 131);
  Request defaulted{42};
  EXPECT_EQ(defaulted.count, 1);
}

TEST(RequestTest, AlgorithmNamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (Algorithm a : kAllAlgorithms) {
    EXPECT_TRUE(names.insert(AlgorithmName(a)).second);
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kLoss)), "loss");
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kSparseLoss)),
            "sparse-loss");
  EXPECT_EQ(std::string(AlgorithmName(Algorithm::kRead)), "read");
}

TEST(RequestTest, PermutationCheckMatchesMultisets) {
  std::vector<Request> requests = {{10, 1}, {20, 2}, {10, 1}};
  Schedule s;
  s.order = {{10, 1}, {10, 1}, {20, 2}};
  EXPECT_TRUE(IsPermutationOfRequests(s, requests));

  s.order = {{10, 1}, {20, 2}};  // missing a duplicate
  EXPECT_FALSE(IsPermutationOfRequests(s, requests));

  s.order = {{10, 1}, {10, 1}, {20, 1}};  // count differs
  EXPECT_FALSE(IsPermutationOfRequests(s, requests));

  s.order = {{10, 1}, {10, 1}, {20, 2}, {30, 1}};  // extra
  EXPECT_FALSE(IsPermutationOfRequests(s, requests));
}

TEST(RequestTest, EmptyPermutation) {
  Schedule s;
  EXPECT_TRUE(IsPermutationOfRequests(s, {}));
  EXPECT_FALSE(IsPermutationOfRequests(s, {{1, 1}}));
}

TEST(OldestFirstMatcherTest, IdenticalRequestsMatchInSubmissionOrder) {
  // Same segment with different counts are different requests.
  const std::vector<Request> submitted = {
      {500, 1}, {20, 1}, {500, 1}, {500, 4}, {20, 1}, {500, 1}};
  OldestFirstMatcher matcher(submitted);
  EXPECT_EQ(matcher.Take({500, 1}), 0u);
  EXPECT_EQ(matcher.Take({500, 4}), 3u);
  EXPECT_EQ(matcher.Take({20, 1}), 1u);
  EXPECT_EQ(matcher.Take({500, 1}), 2u);
  EXPECT_EQ(matcher.Take({500, 1}), 5u);
  EXPECT_EQ(matcher.Take({20, 1}), 4u);
}

}  // namespace
}  // namespace serpentine::sched
