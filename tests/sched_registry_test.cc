#include "serpentine/sched/registry.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::TapeGeometry;

/// What a registry build returns for `direct`: its order, or the ascending
/// single pass over the same requests when that prices strictly lower.
std::vector<Request> Bounded(const tape::LocateModel& model,
                             const Schedule& direct) {
  if (direct.full_tape_scan) return direct.order;
  Schedule pass = direct;
  std::sort(pass.order.begin(), pass.order.end(),
            [](const Request& a, const Request& b) {
              return a.segment < b.segment;
            });
  return EstimateScheduleSeconds(model, pass) <
                 EstimateScheduleSeconds(model, direct)
             ? pass.order
             : direct.order;
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> UniformBatch(int n, int32_t seed) {
    Lrand48 rng(seed);
    return sim::GenerateUniformRequests(rng, n,
                                        model_.geometry().total_segments());
  }

  Dlt4000LocateModel model_;
};

// ---------------------------------------------------------------------------
// AlgorithmFromString.
// ---------------------------------------------------------------------------

TEST(AlgorithmFromStringTest, RoundTripsEveryAlgorithmName) {
  for (Algorithm a : kAllAlgorithms) {
    auto parsed = AlgorithmFromString(AlgorithmName(a));
    ASSERT_TRUE(parsed.ok()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
}

TEST(AlgorithmFromStringTest, RejectsUnknownNamesWithTheValidList) {
  for (const char* bad : {"", "LOSS", "loss ", "sltf2", "nearest"}) {
    auto parsed = AlgorithmFromString(bad);
    ASSERT_FALSE(parsed.ok()) << "\"" << bad << "\" parsed unexpectedly";
    // The error teaches the valid spellings.
    EXPECT_NE(parsed.status().ToString().find("sparse-loss"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The default registry.
// ---------------------------------------------------------------------------

TEST(DefaultRegistryTest, CarriesEveryAlgorithmUnderItsName) {
  const Registry& registry = Registry::Default();
  for (Algorithm a : kAllAlgorithms) {
    const RegistryEntry* entry = registry.Find(AlgorithmName(a));
    ASSERT_NE(entry, nullptr) << AlgorithmName(a);
    EXPECT_EQ(entry->algorithm, a);
    EXPECT_NE(entry->build, nullptr);
    EXPECT_FALSE(entry->description.empty());
  }
  // Nine paper algorithms + five named variants (loss-coalesced,
  // sltf-naive, ltsp-exact, loss-mt, loss-mt-oropt).
  EXPECT_EQ(registry.entries().size(), 14u);
}

TEST(DefaultRegistryTest, LabelsMatchThePaperFigures) {
  const Registry& registry = Registry::Default();
  EXPECT_EQ(registry.Find("fifo")->label, "FIFO");
  EXPECT_EQ(registry.Find("loss")->label, "LOSS");
  EXPECT_EQ(registry.Find("sparse-loss")->label, "SPARSE-LOSS");
  EXPECT_EQ(registry.Find("loss-coalesced")->label, "LOSS+C");
  EXPECT_EQ(registry.Find("sltf-naive")->label, "SLTF(n2)");
}

TEST(DefaultRegistryTest, VariantsCarryTheirOptionOverrides) {
  const Registry& registry = Registry::Default();

  const RegistryEntry* coalesced = registry.Find("loss-coalesced");
  ASSERT_NE(coalesced, nullptr);
  EXPECT_EQ(coalesced->algorithm, Algorithm::kLoss);
  EXPECT_EQ(coalesced->options.loss_coalesce_threshold,
            kDefaultCoalesceThreshold);

  const RegistryEntry* naive = registry.Find("sltf-naive");
  ASSERT_NE(naive, nullptr);
  EXPECT_EQ(naive->algorithm, Algorithm::kSltf);
  EXPECT_TRUE(naive->options.sltf_naive);

  // The base entries keep default options.
  EXPECT_EQ(registry.Find("loss")->options.loss_coalesce_threshold,
            SchedulerOptions{}.loss_coalesce_threshold);
  EXPECT_FALSE(registry.Find("sltf")->options.sltf_naive);
}

TEST(DefaultRegistryTest, ResolveExplainsWhatIsRegistered) {
  const Registry& registry = Registry::Default();
  auto hit = registry.Resolve("weave");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->algorithm, Algorithm::kWeave);

  auto miss = registry.Resolve("bogus");
  ASSERT_FALSE(miss.ok());
  std::string message = miss.status().ToString();
  EXPECT_NE(message.find("bogus"), std::string::npos);
  // The error lists the registered names, variants included.
  EXPECT_NE(message.find("loss-coalesced"), std::string::npos);
  EXPECT_NE(message.find("sltf-naive"), std::string::npos);
}

TEST(DefaultRegistryTest, NamesPreserveRegistrationOrder) {
  std::vector<std::string> names = Registry::Default().names();
  ASSERT_EQ(names.size(), 14u);
  // The paper's order first, variants appended.
  EXPECT_EQ(names.front(), "read");
  EXPECT_EQ(names[1], "fifo");
  EXPECT_EQ(names[9], "loss-coalesced");
  EXPECT_EQ(names[10], "sltf-naive");
  EXPECT_EQ(names[11], "ltsp-exact");
  EXPECT_EQ(names[12], "loss-mt");
  EXPECT_EQ(names.back(), "loss-mt-oropt");
}

// ---------------------------------------------------------------------------
// Registration semantics.
// ---------------------------------------------------------------------------

TEST(RegistrySemanticsTest, RegisterFillsLabelAndDefaultFactory) {
  Registry registry;
  RegistryEntry entry;
  entry.name = "loss";
  entry.algorithm = Algorithm::kLoss;
  registry.Register(std::move(entry));

  const RegistryEntry* stored = registry.Find("loss");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->label, "LOSS");
  ASSERT_NE(stored->build, nullptr);
}

TEST(RegistrySemanticsTest, ReRegisteringANameReplacesInPlace) {
  Registry registry;
  RegistryEntry first;
  first.name = "a";
  first.description = "first";
  registry.Register(std::move(first));
  RegistryEntry other;
  other.name = "b";
  registry.Register(std::move(other));

  RegistryEntry replacement;
  replacement.name = "a";
  replacement.description = "second";
  replacement.algorithm = Algorithm::kScan;
  registry.Register(std::move(replacement));

  ASSERT_EQ(registry.entries().size(), 2u);
  EXPECT_EQ(registry.entries()[0].name, "a");
  EXPECT_EQ(registry.entries()[0].description, "second");
  EXPECT_EQ(registry.entries()[0].algorithm, Algorithm::kScan);
  EXPECT_EQ(registry.entries()[1].name, "b");
}

TEST(RegistrySemanticsTest, CustomFactoryWins) {
  Registry registry;
  RegistryEntry entry;
  entry.name = "canned";
  entry.build = [](const tape::LocateModel&, tape::SegmentId initial,
                   std::vector<Request> requests,
                   const SchedulerOptions&) -> serpentine::StatusOr<Schedule> {
    Schedule s;
    s.algorithm = Algorithm::kFifo;
    s.initial_position = initial;
    s.order = std::move(requests);
    return s;
  };
  registry.Register(std::move(entry));

  Dlt4000LocateModel model(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
                           Dlt4000Timings());
  std::vector<Request> requests = {{100, 1}, {5, 1}};
  auto schedule = registry.Build(model, 42, requests, "canned");
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->initial_position, 42);
  // The factory's untouched arrival order, READ-bounded like every build.
  Schedule canned;
  canned.initial_position = 42;
  canned.order = requests;
  EXPECT_EQ(schedule->order, Bounded(model, canned));
}

// ---------------------------------------------------------------------------
// Build: registry output equals the direct BuildSchedule call, bounded.
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, BuildMatchesDirectBuildSchedule) {
  std::vector<Request> requests = UniformBatch(64, 5);
  const Registry& registry = Registry::Default();

  for (const char* name : {"fifo", "sort", "scan", "weave", "sltf", "loss",
                           "sparse-loss", "read"}) {
    const RegistryEntry* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr) << name;
    auto via_registry = registry.Build(model_, 0, requests, name);
    ASSERT_TRUE(via_registry.ok()) << name;
    auto direct = BuildSchedule(model_, 0, requests, entry->algorithm,
                                entry->options);
    ASSERT_TRUE(direct.ok()) << name;
    EXPECT_EQ(via_registry->order, Bounded(model_, *direct)) << name;
    EXPECT_EQ(via_registry->full_tape_scan, direct->full_tape_scan) << name;
    EXPECT_EQ(via_registry->algorithm, entry->algorithm) << name;
  }
}

TEST_F(RegistryTest, VariantBuildsDifferFromTheirBasesWhereExpected) {
  // loss-coalesced coalesces near-adjacent requests: on a dense cluster
  // the service order must differ from plain LOSS at default options only
  // if coalescing actually kicks in, but the schedule always remains a
  // permutation of the batch.
  std::vector<Request> requests = UniformBatch(48, 9);
  auto coalesced =
      Registry::Default().Build(model_, 0, requests, "loss-coalesced");
  ASSERT_TRUE(coalesced.ok());
  EXPECT_TRUE(IsPermutationOfRequests(*coalesced, requests));

  auto naive = Registry::Default().Build(model_, 0, requests, "sltf-naive");
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(IsPermutationOfRequests(*naive, requests));
  // The naive O(n^2) SLTF and the section-based SLTF implement the same
  // greedy rule; both must produce a valid schedule for the same batch.
  auto fast = Registry::Default().Build(model_, 0, requests, "sltf");
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->order.size(), naive->order.size());
}

TEST_F(RegistryTest, BuildUnknownNameFails) {
  auto result =
      Registry::Default().Build(model_, 0, UniformBatch(4, 1), "nope");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace serpentine::sched
