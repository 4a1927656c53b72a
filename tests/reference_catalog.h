// Test-only oracle: the placement loop fleet::Catalog::Build ran for every
// policy before round-robin placement became a closed form, kept so
// fleet_catalog_oracle_test.cc can require the production catalog to
// return the same replicas, the same per-library counts and the same
// failures.
//
// Per logical segment, per replica: the candidates are the libraries with
// free capacity not already holding a replica of the segment. Round-robin
// wants (logical + r) mod L and walks forward past non-candidates; random
// and weighted draw from one rand48 stream. Each library fills its
// cartridges sequentially.
#ifndef SERPENTINE_TESTS_REFERENCE_CATALOG_H_
#define SERPENTINE_TESTS_REFERENCE_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/statusor.h"

namespace serpentine::fleet::oracle {

struct ReferencePlacement {
  /// replicas[logical][r], in placement order.
  std::vector<std::vector<ReplicaLocation>> replicas;
  std::vector<int64_t> placed_per_library;
};

/// The placement of `logical_segments` segments. Expects a topology and
/// options Catalog::Build accepts up to capacity; fails with
/// ResourceExhausted where the old builder did.
inline StatusOr<ReferencePlacement> ReferenceBuild(
    const FleetTopology& topology, int64_t logical_segments,
    const PlacementOptions& options) {
  struct FillCursor {
    int cartridge = 0;
    tape::SegmentId segment = 0;
    int64_t remaining = 0;
  };
  const int libraries = topology.libraries();
  if (logical_segments * options.replication > topology.total_segments()) {
    return ResourceExhaustedError("oracle: over fleet capacity");
  }
  std::vector<FillCursor> cursors(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    cursors[lib].remaining = topology.library_segments(lib);
  }
  Lrand48 rng(options.seed);

  ReferencePlacement out;
  out.replicas.resize(logical_segments);
  out.placed_per_library.assign(libraries, 0);
  std::vector<int> chosen;
  std::vector<int> candidates;
  for (int64_t logical = 0; logical < logical_segments; ++logical) {
    chosen.clear();
    for (int r = 0; r < options.replication; ++r) {
      candidates.clear();
      for (int lib = 0; lib < libraries; ++lib) {
        if (cursors[lib].remaining <= 0) continue;
        bool taken = false;
        for (int c : chosen) taken = taken || (c == lib);
        if (!taken) candidates.push_back(lib);
      }
      if (candidates.empty()) {
        return ResourceExhaustedError(
            "oracle: no distinct library with free capacity at logical " +
            std::to_string(logical));
      }
      int pick = candidates[0];
      switch (options.policy) {
        case PlacementPolicy::kRoundRobin: {
          int want = static_cast<int>((logical + r) % libraries);
          for (int step = 0; step < libraries; ++step) {
            int lib = (want + step) % libraries;
            bool ok = false;
            for (int c : candidates) ok = ok || (c == lib);
            if (ok) {
              pick = lib;
              break;
            }
          }
          break;
        }
        case PlacementPolicy::kRandom:
          pick = candidates[rng.NextBounded(
              static_cast<int64_t>(candidates.size()))];
          break;
        case PlacementPolicy::kWeighted: {
          double total = 0.0;
          for (int lib : candidates) {
            total += options.weights.empty() ? 1.0 : options.weights[lib];
          }
          if (total <= 0.0) {
            pick = candidates[rng.NextBounded(
                static_cast<int64_t>(candidates.size()))];
            break;
          }
          double u = rng.NextDouble() * total;
          double prefix = 0.0;
          pick = candidates.back();
          for (int lib : candidates) {
            prefix += options.weights.empty() ? 1.0 : options.weights[lib];
            if (u < prefix) {
              pick = lib;
              break;
            }
          }
          break;
        }
      }
      chosen.push_back(pick);

      FillCursor& cur = cursors[pick];
      ReplicaLocation loc;
      loc.library = pick;
      loc.cartridge = cur.cartridge;
      loc.segment = cur.segment;
      out.replicas[logical].push_back(loc);
      ++out.placed_per_library[pick];
      --cur.remaining;
      ++cur.segment;
      if (cur.segment >= topology.capacity[pick][cur.cartridge]) {
        ++cur.cartridge;
        cur.segment = 0;
      }
    }
  }
  return out;
}

}  // namespace serpentine::fleet::oracle

#endif  // SERPENTINE_TESTS_REFERENCE_CATALOG_H_
