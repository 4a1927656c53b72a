// The catalog against the placement loop it replaced (reference_catalog.h):
// every replica of every logical segment, the per-library counts and the
// failures must match, for every policy, replication 1..L and catalog size,
// on uneven multi-cartridge libraries. Round-robin sizes that fill a
// library take the table path with the old skip rule; the rest take the
// closed form.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "reference_catalog.h"
#include "serpentine/fleet/catalog.h"

namespace serpentine::fleet {
namespace {

struct Case {
  PlacementPolicy policy;
  std::vector<double> weights;
};

void ExpectSameAsOracle(const FleetTopology& topology, int64_t logical,
                        const PlacementOptions& options) {
  SCOPED_TRACE(std::string(PlacementPolicyName(options.policy)) +
               " replication " + std::to_string(options.replication) +
               " logical " + std::to_string(logical));
  StatusOr<oracle::ReferencePlacement> want =
      oracle::ReferenceBuild(topology, logical, options);
  StatusOr<Catalog> got = Catalog::Build(topology, logical, options);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  ASSERT_EQ(got->num_logical(), logical);
  ASSERT_EQ(got->replication(), options.replication);
  EXPECT_EQ(got->placed_per_library(), want->placed_per_library);
  for (int64_t i = 0; i < logical; ++i) {
    const ReplicaList replicas = got->replicas(i);
    ASSERT_EQ(replicas.size(), options.replication);
    for (int r = 0; r < options.replication; ++r) {
      ASSERT_EQ(replicas[r], want->replicas[i][r])
          << "logical " << i << " replica " << r;
    }
  }
}

TEST(CatalogOracleTest, EveryPolicyReplicationAndSizeMatchesTheOracle) {
  // Uneven libraries, three of them multi-cartridge.
  FleetTopology topology;
  topology.capacity = {{30, 17}, {50}, {12, 12, 12}, {41, 5}};
  const int libraries = topology.libraries();
  const int64_t total = topology.total_segments();
  const std::vector<Case> cases = {
      {PlacementPolicy::kRoundRobin, {}},
      {PlacementPolicy::kRandom, {}},
      {PlacementPolicy::kWeighted, {}},
      {PlacementPolicy::kWeighted, {3.0, 1.0, 0.5, 2.0}},
      {PlacementPolicy::kWeighted, {0.0, 1.0, 0.0, 4.0}},
  };
  for (const Case& c : cases) {
    for (int replication = 1; replication <= libraries; ++replication) {
      PlacementOptions options;
      options.policy = c.policy;
      options.weights = c.weights;
      options.replication = replication;
      options.seed = 5;
      // Every size up to one past fleet capacity: the default catalog
      // (the smallest library, 36), sizes that fill a library, and sizes
      // the distinct-library rule cannot place.
      for (int64_t logical = 1; logical * replication <= total + 1;
           ++logical) {
        ExpectSameAsOracle(topology, logical, options);
      }
    }
  }
}

TEST(CatalogOracleTest, DefaultFleetCatalogMatchesTheOracle) {
  // fleet-mix's shape at a smaller scale: 3 libraries, replication 2, the
  // smallest library's capacity as the catalog size.
  FleetTopology topology;
  topology.capacity = {{6211, 4000}, {9000, 1300}, {10200}};
  PlacementOptions options;
  options.replication = 2;
  ExpectSameAsOracle(topology, 10200, options);
  options.replication = 3;
  ExpectSameAsOracle(topology, 10200, options);
}

}  // namespace
}  // namespace serpentine::fleet
