// Multi-cartridge tape library: requests spread over several tapes, one
// drive, a robot arm, and mount scheduling (busiest tape first). Shows the
// full storage-system view: mounts + rewind-to-eject (paper footnote 5) +
// per-tape scheduled batches, and the effect of a segment cache on a
// re-read workload.
#include <cstdio>

#include "serpentine/store/store.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

int main() {
  constexpr int kCartridges = 6;
  store::StoreOptions options;
  options.cache_segments = 16384;  // 512 MB of 32 KB segments
  store::TertiaryStore st(
      options, store::TapeLibrary(tape::Dlt4000TapeParams(), kCartridges,
                                  tape::Dlt4000Timings()));

  // Phase 1: 400 reads, skewed toward two hot cartridges.
  Lrand48 rng(11);
  std::vector<std::pair<int, tape::SegmentId>> touched;
  for (int i = 0; i < 400; ++i) {
    int tape = static_cast<int>(rng.NextBounded(10));
    tape = tape < 4 ? 0 : (tape < 7 ? 1 : static_cast<int>(rng.NextBounded(kCartridges)));
    tape::SegmentId seg = rng.NextBounded(
        st.library().model(tape).geometry().total_segments());
    if (!st.SubmitRead(tape, seg).ok()) std::abort();
    touched.push_back({tape, seg});
  }
  auto report = st.Flush();
  if (!report.ok()) std::abort();
  std::printf("Phase 1: cold read of 400 segments across %d cartridges\n",
              kCartridges);
  std::printf("  mounts: %d, elapsed: %.0f s (%.2f h), mean response: %.0f s\n",
              report->mounts, report->elapsed_seconds,
              report->elapsed_seconds / 3600.0,
              report->mean_response_seconds);
  std::printf("  first tape serviced: %d (the busiest one is mounted "
              "first)\n\n",
              report->completed.front().tape);

  // Phase 2: re-read half of the same segments — the cache absorbs them.
  for (size_t i = 0; i < touched.size(); i += 2) {
    if (!st.SubmitRead(touched[i].first, touched[i].second).ok())
      std::abort();
  }
  auto report2 = st.Flush();
  if (!report2.ok()) std::abort();
  int hits = 0;
  for (const auto& c : report2->completed) hits += c.cache_hit ? 1 : 0;
  std::printf("Phase 2: re-read of 200 recently-read segments\n");
  std::printf("  cache hits: %d / %zu, elapsed: %.0f s\n", hits,
              report2->completed.size(), report2->elapsed_seconds);
  std::printf("  cache stats: %lld hits, %lld misses (%.0f%% hit rate)\n",
              static_cast<long long>(st.cache().hits()),
              static_cast<long long>(st.cache().misses()),
              st.cache().hit_rate() * 100.0);
  return 0;
}
