#include "serpentine/store/store.h"

#include <string>

#include <gtest/gtest.h>

#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/store/segment_cache.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::store {
namespace {

using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;

// ---------------------------------------------------------------------------
// SegmentCache.
// ---------------------------------------------------------------------------

TEST(SegmentCacheTest, MissThenHit) {
  SegmentCache c(4);
  CacheKey k{0, 100};
  EXPECT_FALSE(c.Lookup(k));
  c.Insert(k);
  EXPECT_TRUE(c.Lookup(k));
  EXPECT_EQ(c.hits(), 1);
  EXPECT_EQ(c.misses(), 1);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(SegmentCacheTest, EvictsLeastRecentlyUsed) {
  SegmentCache c(2);
  c.Insert({0, 1});
  c.Insert({0, 2});
  EXPECT_TRUE(c.Lookup({0, 1}));  // refresh 1; 2 becomes LRU
  c.Insert({0, 3});               // evicts 2
  EXPECT_EQ(c.evictions(), 1);
  EXPECT_TRUE(c.Lookup({0, 1}));
  EXPECT_FALSE(c.Lookup({0, 2}));
  EXPECT_TRUE(c.Lookup({0, 3}));
}

TEST(SegmentCacheTest, ReinsertRefreshesWithoutGrowth) {
  SegmentCache c(2);
  c.Insert({0, 1});
  c.Insert({0, 1});
  EXPECT_EQ(c.size(), 1u);
}

TEST(SegmentCacheTest, DistinguishesTapes) {
  SegmentCache c(4);
  c.Insert({0, 1});
  EXPECT_FALSE(c.Lookup({1, 1}));
  EXPECT_TRUE(c.Lookup({0, 1}));
}

TEST(SegmentCacheTest, ZeroCapacityNeverStores) {
  SegmentCache c(0);
  c.Insert({0, 1});
  EXPECT_FALSE(c.Lookup({0, 1}));
  EXPECT_EQ(c.size(), 0u);
}

// ---------------------------------------------------------------------------
// TapeLibrary.
// ---------------------------------------------------------------------------

class TapeLibraryTest : public ::testing::Test {
 protected:
  TapeLibraryTest()
      : library_(Dlt4000TapeParams(), 3, Dlt4000Timings()) {}
  TapeLibrary library_;
};

TEST_F(TapeLibraryTest, StartsUnmounted) {
  EXPECT_EQ(library_.mounted(), -1);
  EXPECT_EQ(library_.num_cartridges(), 3);
  EXPECT_DOUBLE_EQ(library_.now(), 0.0);
  EXPECT_FALSE(library_.LocateTo(0).ok());
  EXPECT_FALSE(library_.ReadForward(1).ok());
  EXPECT_FALSE(library_.Unmount().ok());
}

TEST_F(TapeLibraryTest, MountCostsRobotAndLoadTime) {
  ASSERT_TRUE(library_.Mount(0).ok());
  EXPECT_EQ(library_.mounted(), 0);
  EXPECT_EQ(library_.head_position(), 0);
  EXPECT_NEAR(library_.now(), 15.0 + 40.0, 1e-9);
  EXPECT_EQ(library_.total_mounts(), 1);
}

TEST_F(TapeLibraryTest, RemountSameTapeIsFree) {
  ASSERT_TRUE(library_.Mount(1).ok());
  double t = library_.now();
  ASSERT_TRUE(library_.Mount(1).ok());
  EXPECT_DOUBLE_EQ(library_.now(), t);
  EXPECT_EQ(library_.total_mounts(), 1);
}

TEST_F(TapeLibraryTest, SwitchingTapesRewindsFirst) {
  ASSERT_TRUE(library_.Mount(0).ok());
  ASSERT_TRUE(library_.LocateTo(300000).ok());
  double positioned = library_.now();
  ASSERT_TRUE(library_.Mount(1).ok());
  // Unmount must pay the rewind from deep in the tape (tens of seconds)
  // plus unload + two robot moves + load.
  double exchange = library_.now() - positioned;
  EXPECT_GT(exchange, 15.0 + 20.0 + 15.0 + 40.0 + 20.0);
  EXPECT_EQ(library_.head_position(), 0);
  EXPECT_EQ(library_.total_mounts(), 2);
}

TEST_F(TapeLibraryTest, LocateAndReadAdvanceHeadAndClock) {
  ASSERT_TRUE(library_.Mount(0).ok());
  double before = library_.now();
  auto locate = library_.LocateTo(5000);
  ASSERT_TRUE(locate.ok());
  EXPECT_GT(locate.value(), 0.0);
  EXPECT_EQ(library_.head_position(), 5000);
  auto read = library_.ReadForward(100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(library_.head_position(), 5100);
  EXPECT_NEAR(library_.now() - before, locate.value() + read.value(), 1e-9);
}

TEST_F(TapeLibraryTest, RejectsOutOfRangeOperations) {
  ASSERT_TRUE(library_.Mount(0).ok());
  SegmentId total = library_.model(0).geometry().total_segments();
  EXPECT_FALSE(library_.LocateTo(total).ok());
  EXPECT_FALSE(library_.LocateTo(-1).ok());
  ASSERT_TRUE(library_.LocateTo(total - 5).ok());
  EXPECT_FALSE(library_.ReadForward(100).ok());
  EXPECT_FALSE(library_.ReadForward(0).ok());
}

TEST_F(TapeLibraryTest, FullScanTakesAboutFourHours) {
  // A READ pass run on the mounted drive, then charged to the library.
  ASSERT_TRUE(library_.Mount(0).ok());
  sched::Schedule read;
  read.full_tape_scan = true;
  double before = library_.now();
  sim::RecoveringExecutionResult pass =
      sim::RecoveringExecutor(*library_.mounted_drive(), library_.model(0))
          .Execute(read);
  library_.Work(pass.total_seconds);
  EXPECT_NEAR(pass.total_seconds, 14000.0, 700.0);
  EXPECT_EQ(library_.head_position(), 0);
  EXPECT_DOUBLE_EQ(library_.now() - before, pass.total_seconds);
  EXPECT_DOUBLE_EQ(library_.busy_seconds() - before, pass.total_seconds);
}

TEST_F(TapeLibraryTest, CartridgesHaveDistinctGeometry) {
  EXPECT_NE(library_.model(0).geometry().KeyPointSegment(10, 5),
            library_.model(1).geometry().KeyPointSegment(10, 5));
}

TEST_F(TapeLibraryTest, IdleAdvancesClockWithoutBusyTime) {
  library_.Idle(100.0);
  EXPECT_DOUBLE_EQ(library_.now(), 100.0);
  EXPECT_DOUBLE_EQ(library_.busy_seconds(), 0.0);
}

TEST_F(TapeLibraryTest, ErrorsNameTheOperationAndValues) {
  // Every validation failure must say which operation, which value, and
  // what the valid range was — a CHECK crash or a bare "error" is useless
  // in a store log.
  Status bad_tape = library_.Mount(7);
  EXPECT_EQ(bad_tape.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_tape.message().find("Mount"), std::string::npos);
  EXPECT_NE(bad_tape.message().find("7"), std::string::npos);
  EXPECT_NE(bad_tape.message().find("[0, 3)"), std::string::npos);
  EXPECT_EQ(library_.Mount(-1).code(), StatusCode::kInvalidArgument);

  Status unmounted = library_.LocateTo(100).status();
  EXPECT_EQ(unmounted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unmounted.message().find("LocateTo"), std::string::npos);
  EXPECT_NE(unmounted.message().find("no cartridge mounted"),
            std::string::npos);
  EXPECT_NE(library_.Unmount().message().find("Unmount"), std::string::npos);
  EXPECT_NE(library_.WriteForward(5).status().message().find("WriteForward"),
            std::string::npos);

  ASSERT_TRUE(library_.Mount(0).ok());
  SegmentId total = library_.model(0).geometry().total_segments();
  Status off_tape = library_.LocateTo(total).status();
  EXPECT_EQ(off_tape.code(), StatusCode::kOutOfRange);
  EXPECT_NE(off_tape.message().find(std::to_string(total)),
            std::string::npos);
  Status bad_count = library_.ReadForward(0).status();
  EXPECT_EQ(bad_count.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_count.message().find("ReadForward"), std::string::npos);
}

TEST_F(TapeLibraryTest, MountRetriesUnderRobotFaults) {
  drive::FaultProfile profile;
  profile.mount_failure_rate = 0.5;
  drive::FaultInjector injector(profile);
  library_.SetMountFaults(&injector);
  int64_t mounts = 0, retries_seen = 0;
  double clean_mount_cost = 15.0 + 40.0;
  for (int tape = 0; tape < 200 && library_.mount_retries() < 5; ++tape) {
    double before = library_.now();
    Status s = library_.Mount(tape % 3);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(s.message().find("Mount"), std::string::npos);
      retries_seen = library_.mount_retries();
      continue;
    }
    ++mounts;
    if (library_.mount_retries() > retries_seen) {
      // A retried mount paid the robot re-pick plus backoff on top of the
      // clean exchange cost.
      EXPECT_GT(library_.now() - before, clean_mount_cost);
      retries_seen = library_.mount_retries();
    }
  }
  EXPECT_GT(mounts, 0);
  EXPECT_GT(library_.mount_retries(), 0);
}

TEST_F(TapeLibraryTest, MountExhaustionReturnsResourceExhausted) {
  drive::FaultProfile profile;
  profile.mount_failure_rate = 1.0;  // the robot never succeeds
  drive::FaultInjector injector(profile);
  RetryPolicy retry;
  retry.max_attempts = 3;
  library_.SetMountFaults(&injector, retry);
  Status s = library_.Mount(0);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("3 attempts"), std::string::npos);
  EXPECT_EQ(library_.mounted(), -1);
  EXPECT_EQ(library_.mount_retries(), 3);
  // Detaching the injector restores infallible mounts.
  library_.SetMountFaults(nullptr);
  EXPECT_TRUE(library_.Mount(0).ok());
}

TEST_F(TapeLibraryTest, MountFaultsAreDeterministic) {
  auto run = [] {
    TapeLibrary library(Dlt4000TapeParams(), 3, Dlt4000Timings());
    drive::FaultProfile p;
    p.mount_failure_rate = 0.4;
    drive::FaultInjector injector(p);
    library.SetMountFaults(&injector);
    for (int i = 0; i < 40; ++i) (void)library.Mount(i % 3);
    return std::pair<double, int64_t>(library.now(),
                                      library.mount_retries());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST_F(TapeLibraryTest, MountBreakerFailsFastAndRecovers) {
  drive::FaultProfile profile;
  profile.mount_failure_rate = 1.0;  // the robot always drops the cartridge
  drive::FaultInjector injector(profile);
  RetryPolicy retry;
  retry.max_attempts = 4;
  library_.SetMountFaults(&injector, retry);

  drive::BreakerPolicy policy;
  policy.window_ops = 4;
  policy.failure_threshold = 2;
  policy.cooldown_seconds = 300.0;
  policy.half_open_successes = 1;
  library_.EnableMountBreaker(policy);
  ASSERT_NE(library_.mount_breaker(), nullptr);

  // The breaker trips mid-exchange on the second failed attempt and aborts
  // the remaining retry budget instead of burning it.
  Status tripped = library_.Mount(0);
  EXPECT_EQ(tripped.code(), StatusCode::kUnavailable);
  EXPECT_NE(tripped.message().find("tripped open"), std::string::npos);
  EXPECT_EQ(library_.mount_breaker()->state(), drive::BreakerState::kOpen);
  EXPECT_EQ(library_.mount_retries(), 2);  // not the full 4 attempts

  // While open, mounts fail fast: Unavailable with the cooldown named, no
  // robot motion, no clock spend, no fault draws.
  double before = library_.now();
  Status refused = library_.Mount(1);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("retry after"), std::string::npos);
  EXPECT_DOUBLE_EQ(library_.now(), before);
  EXPECT_EQ(library_.mount_fast_fails(), 1);
  EXPECT_EQ(library_.mount_retries(), 2);  // untouched: no attempt was made

  // Idling past the cooldown half-opens the breaker; once the robot is
  // healthy again the probe mount succeeds and closes it.
  library_.Idle(policy.cooldown_seconds + 1.0);
  library_.SetMountFaults(nullptr);
  EXPECT_TRUE(library_.Mount(0).ok());
  EXPECT_EQ(library_.mount_breaker()->state(), drive::BreakerState::kClosed);
  EXPECT_EQ(library_.mounted(), 0);

  // Disarming restores the plain retry path.
  library_.DisableMountBreaker();
  EXPECT_EQ(library_.mount_breaker(), nullptr);
  EXPECT_TRUE(library_.Mount(1).ok());
}

// ---------------------------------------------------------------------------
// TertiaryStore.
// ---------------------------------------------------------------------------

TertiaryStore MakeStore(StoreOptions options = {}, int cartridges = 2) {
  return TertiaryStore(
      options, TapeLibrary(Dlt4000TapeParams(), cartridges,
                           Dlt4000Timings()));
}

TEST(TertiaryStoreTest, ValidatesSubmissions) {
  TertiaryStore store = MakeStore();
  EXPECT_FALSE(store.SubmitRead(5, 0).ok());
  EXPECT_FALSE(store.SubmitRead(0, -1).ok());
  EXPECT_FALSE(store.SubmitRead(0, 0, 0).ok());
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  EXPECT_FALSE(store.SubmitRead(0, total - 1, 2).ok());
  EXPECT_TRUE(store.SubmitRead(0, total - 1, 1).ok());
}

TEST(TertiaryStoreTest, FlushCompletesAllPending) {
  TertiaryStore store = MakeStore();
  Lrand48 rng(3);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.SubmitRead(i % 2, rng.NextBounded(total)).ok());
  }
  EXPECT_EQ(store.pending(), 20u);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed.size(), 20u);
  EXPECT_EQ(store.pending(), 0u);
  EXPECT_EQ(report->mounts, 2);
  EXPECT_GT(report->elapsed_seconds, 0.0);
  EXPECT_GT(report->mean_response_seconds, 0.0);
  EXPECT_GE(report->max_response_seconds, report->mean_response_seconds);
  EXPECT_EQ(report->segments_read, 20);
  for (const auto& c : report->completed) {
    EXPECT_GE(c.complete_seconds, c.submit_seconds);
  }
}

TEST(TertiaryStoreTest, RepeatReadHitsCache) {
  TertiaryStore store = MakeStore();
  ASSERT_TRUE(store.SubmitRead(0, 12345).ok());
  ASSERT_TRUE(store.Flush().ok());
  auto id = store.SubmitRead(0, 12345);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.pending(), 0u);  // served from cache
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), 1u);
  EXPECT_TRUE(report->completed[0].cache_hit);
  EXPECT_DOUBLE_EQ(report->completed[0].response_seconds(), 0.0);
}

TEST(TertiaryStoreTest, MountsBusiestTapeFirst) {
  TertiaryStore store = MakeStore({}, 3);
  Lrand48 rng(7);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  // Tape 2 has far more pending requests than tape 0.
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(store.SubmitRead(2, rng.NextBounded(total)).ok());
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed.front().tape, 2);
}

TEST(TertiaryStoreTest, SmallBatchesUseOpt) {
  // The default scheduler, opt-small, hands batches of up to 10 to OPT.
  TertiaryStore store = MakeStore({}, 1);
  EXPECT_EQ(store.options().scheduler, "opt-small");
  Lrand48 rng(9);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  // OPT handles 8 requests; the flush must succeed (an oversize OPT batch
  // would fail InvalidArgument).
  EXPECT_TRUE(store.Flush().ok());
}

TEST(TertiaryStoreTest, FlushChargesTheScheduleEstimate) {
  // A duplicate read is delivered from the pass that read it and a short
  // gap across a track boundary is read through, so the flush charges
  // what the estimator prices and stamps each read when its executor step
  // ends.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  ASSERT_TRUE(store.library().Mount(0).ok());  // the flush mounts nothing
  const tape::LocateModel& model = store.library().model(0);
  const SegmentId boundary = model.geometry().track_start(1);
  const std::vector<sched::Request> reads = {{200000, 1},
                                             {boundary - 3, 1},
                                             {200000, 1},
                                             {boundary + 2, 1},
                                             {9000, 4}};
  for (const sched::Request& r : reads) {
    ASSERT_TRUE(store.SubmitRead(0, r.segment, r.count).ok());
  }
  const double start = store.library().now();
  const double busy = store.library().busy_seconds();
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), reads.size());

  // The store's schedule: opt-small (OPT for a batch this small), from
  // BOT.
  auto schedule = sched::Registry::Default().Build(model, 0, reads,
                                                   options.scheduler);
  ASSERT_TRUE(schedule.ok());
  EXPECT_DOUBLE_EQ(store.library().busy_seconds() - busy,
                   sched::EstimateScheduleSeconds(model, *schedule));

  drive::ModelDrive drive(model);
  double clock = start;
  std::vector<double> stamps;
  sim::RecoveringExecutor(drive, model)
      .Execute(*schedule, [&](const sched::Request&, double step, bool) {
        clock += step;
        stamps.push_back(clock);
      });
  ASSERT_EQ(stamps.size(), reads.size());
  for (size_t i = 0; i < stamps.size(); ++i) {
    EXPECT_EQ(report->completed[i].complete_seconds, stamps[i]) << i;
  }
}

TEST(TertiaryStoreTest, DuplicateSubmissionsCompleteOldestFirst) {
  // Submissions X, Y, X. The FIFO order is bounded by the ascending pass,
  // which reads X once and delivers the second X from it at the same
  // stamp. The oldest X submission takes the first X completion, as the
  // serving core matches duplicates, so its record comes first.
  StoreOptions options;
  options.scheduler = "fifo";
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  auto oldest = store.SubmitRead(0, 200000);
  ASSERT_TRUE(oldest.ok());
  ASSERT_TRUE(store.SubmitRead(0, 100).ok());
  auto newest = store.SubmitRead(0, 200000);
  ASSERT_TRUE(newest.ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), 3u);
  size_t oldest_at = 3;
  size_t newest_at = 3;
  for (size_t i = 0; i < report->completed.size(); ++i) {
    if (report->completed[i].id == *oldest) oldest_at = i;
    if (report->completed[i].id == *newest) newest_at = i;
  }
  ASSERT_LT(oldest_at, 3u);
  ASSERT_LT(newest_at, 3u);
  EXPECT_LT(oldest_at, newest_at);
  EXPECT_LE(report->completed[oldest_at].complete_seconds,
            report->completed[newest_at].complete_seconds);
}

TEST(TertiaryStoreTest, FullReadTestCountsTheLocateHome) {
  // With the head parked far from BOT, a FIFO batch whose estimate lies
  // above a bare full pass but within the locate home plus that pass. The
  // registry bounds the build by one ascending pass instead of switching
  // to a full read, so the flush scans nothing and charges no more than
  // the READ bound from the head.
  StoreOptions options;
  options.scheduler = "fifo";
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  const tape::LocateModel& model = store.library().model(0);
  // The end of track 0 sits at the physical far end of the tape.
  ASSERT_TRUE(
      store.SubmitRead(0, model.geometry().track_start(1) - 1).ok());
  ASSERT_TRUE(store.Flush().ok());
  const SegmentId head = store.library().head_position();
  const double full_pass = model.FullReadAndRewindSeconds();
  const double bound = sched::ReadBoundSeconds(model, head);
  ASSERT_GT(bound, full_pass);

  // The shortest prefix of a random stream whose FIFO estimate passes
  // the bare full pass; FIFO estimates only grow with the prefix.
  Lrand48 rng(17);
  const SegmentId total = model.geometry().total_segments();
  std::vector<sched::Request> reads;
  double estimate = 0.0;
  while (estimate <= full_pass) {
    reads.push_back({rng.NextBounded(total), 1});
    sched::Schedule fifo;
    fifo.initial_position = head;
    fifo.order = reads;
    estimate = sched::EstimateScheduleSeconds(model, fifo);
  }
  ASSERT_LE(estimate, bound) << reads.size() << " reads";

  for (const sched::Request& r : reads) {
    ASSERT_TRUE(store.SubmitRead(0, r.segment).ok());
  }
  auto schedule =
      sched::Registry::Default().Build(model, head, reads, options.scheduler);
  ASSERT_TRUE(schedule.ok());
  const double busy = store.library().busy_seconds();
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_scans, 0);
  const double charged = store.library().busy_seconds() - busy;
  EXPECT_DOUBLE_EQ(charged, sched::EstimateScheduleSeconds(model, *schedule));
  EXPECT_LE(charged, bound);
}

TEST(TertiaryStoreTest, OptSmallFlushesChargeTheRegistryEstimate) {
  // Batches of 10 (OPT) and 11 (LOSS) reads each charge exactly what the
  // opt-small registry build prices from the head the flush starts at.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  ASSERT_TRUE(store.library().Mount(0).ok());  // the flushes mount nothing
  const tape::LocateModel& model = store.library().model(0);
  Lrand48 rng(23);
  const SegmentId total = model.geometry().total_segments();
  for (int n : {10, 11}) {
    std::vector<sched::Request> reads;
    for (int i = 0; i < n; ++i) {
      reads.push_back({rng.NextBounded(total), 1});
      ASSERT_TRUE(store.SubmitRead(0, reads.back().segment).ok());
    }
    auto schedule = sched::Registry::Default().Build(
        model, store.library().head_position(), reads, "opt-small");
    ASSERT_TRUE(schedule.ok());
    EXPECT_EQ(schedule->algorithm,
              n <= 10 ? sched::Algorithm::kOpt : sched::Algorithm::kLoss);
    const double busy = store.library().busy_seconds();
    auto report = store.Flush();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->completed.size(), static_cast<size_t>(n));
    EXPECT_EQ(store.library().busy_seconds() - busy,
              sched::EstimateScheduleSeconds(model, *schedule))
        << n;
  }
}

TEST(TertiaryStoreTest, UnknownSchedulerIsInvalidArgument) {
  StoreOptions options;
  options.scheduler = "bogus";
  TertiaryStore store = MakeStore(options, 1);
  ASSERT_TRUE(store.SubmitRead(0, 1234).ok());
  auto report = store.Flush();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  // The error lists the registered names.
  std::string message = report.status().ToString();
  EXPECT_NE(message.find("bogus"), std::string::npos);
  EXPECT_NE(message.find("opt-small"), std::string::npos);
  // Nothing was mounted or dropped.
  EXPECT_EQ(store.pending(), 1u);
  EXPECT_EQ(store.library().total_mounts(), 0);
}

TEST(TertiaryStoreTest, BatchingImprovesPerRequestService) {
  // The paper's headline: scheduling a batch beats FIFO-style one-at-a-
  // time service. Compare drive-busy time per request.
  Lrand48 rng(11);
  StoreOptions options;
  options.cache_segments = 0;

  TertiaryStore batched = MakeStore(options, 1);
  SegmentId total =
      batched.library().model(0).geometry().total_segments();
  std::vector<SegmentId> segments;
  for (int i = 0; i < 64; ++i) segments.push_back(rng.NextBounded(total));

  for (SegmentId s : segments) ASSERT_TRUE(batched.SubmitRead(0, s).ok());
  ASSERT_TRUE(batched.Flush().ok());
  double batched_busy = batched.library().busy_seconds();

  TertiaryStore serial = MakeStore(options, 1);
  for (SegmentId s : segments) {
    ASSERT_TRUE(serial.SubmitRead(0, s).ok());
    ASSERT_TRUE(serial.Flush().ok());  // one-request batches: FIFO order
  }
  double serial_busy = serial.library().busy_seconds();
  EXPECT_LT(batched_busy, serial_busy * 0.6);
}

/// Submits a uniform batch big enough that a LOSS schedule is slower than
/// one full pass (the paper's >1536-request regime).
void UniformSubmit(TertiaryStore& store, int n = 2000) {
  Lrand48 rng(13);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  }
}

TEST(TertiaryStoreTest, HugeBatchFallsBackToFullScan) {
  // Past the crossover the registry's READ bound holds the flush to what
  // reading the whole tape from the head would take.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  ASSERT_TRUE(store.library().Mount(0).ok());  // the flush mounts nothing
  const double bound = sched::ReadBoundSeconds(
      store.library().model(0), store.library().head_position());
  UniformSubmit(store);
  const double busy = store.library().busy_seconds();
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(store.library().busy_seconds() - busy, bound);
  // All requests complete within one ~4 h pass.
  EXPECT_LT(report->max_response_seconds, 16000.0);
}

TEST(TertiaryStoreTest, FullScanDisabledKeepsScheduling) {
  // Only the read entry scans the whole tape: the default scheduler keeps
  // a huge batch scheduled, and full_scans counts the read entry's scans.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  UniformSubmit(store);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_scans, 0);

  options.scheduler = "read";
  TertiaryStore reader = MakeStore(options, 1);
  UniformSubmit(reader);
  auto scanned = reader.Flush();
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->full_scans, 1);
  EXPECT_EQ(scanned->completed.size(), 2000u);
}

// ---------------------------------------------------------------------------
// Append / end-of-data (the load path).
// ---------------------------------------------------------------------------

TEST(TertiaryStoreAppendTest, PrewrittenCartridgesAreFull) {
  TertiaryStore store = MakeStore();
  EXPECT_EQ(store.end_of_data(0),
            store.library().model(0).geometry().total_segments());
  // Appends cannot fit on a full cartridge.
  EXPECT_EQ(store.Append(0, 1).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(TertiaryStoreAppendTest, EmptyCartridgeRejectsReadsUntilLoaded) {
  StoreOptions options;
  options.cartridges_start_empty = true;
  TertiaryStore store = MakeStore(options, 1);
  EXPECT_EQ(store.end_of_data(0), 0);
  EXPECT_FALSE(store.SubmitRead(0, 0).ok());

  auto first = store.Append(0, 1000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 0);
  EXPECT_EQ(store.end_of_data(0), 1000);

  EXPECT_TRUE(store.SubmitRead(0, 999).ok());
  EXPECT_FALSE(store.SubmitRead(0, 1000).ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed.size(), 1u);
}

TEST(TertiaryStoreAppendTest, AppendsAreContiguous) {
  StoreOptions options;
  options.cartridges_start_empty = true;
  TertiaryStore store = MakeStore(options, 2);
  EXPECT_EQ(store.Append(0, 500).value(), 0);
  EXPECT_EQ(store.Append(0, 300).value(), 500);
  EXPECT_EQ(store.Append(1, 100).value(), 0);
  EXPECT_EQ(store.Append(0, 200).value(), 800);
  EXPECT_EQ(store.end_of_data(0), 1000);
  EXPECT_EQ(store.end_of_data(1), 100);
}

TEST(TertiaryStoreAppendTest, AppendAdvancesClockByStreamingTime) {
  StoreOptions options;
  options.cartridges_start_empty = true;
  TertiaryStore store = MakeStore(options, 1);
  ASSERT_TRUE(store.Append(0, 100).ok());
  double after_first = store.library().now();
  // ~704 segments per 15.5 s section: 100 segments ≈ 2.2 s of streaming
  // (plus the initial mount).
  ASSERT_TRUE(store.Append(0, 704).ok());
  EXPECT_NEAR(store.library().now() - after_first, 15.5, 3.0);
}

TEST(TertiaryStoreAppendTest, ValidatesArguments) {
  StoreOptions options;
  options.cartridges_start_empty = true;
  TertiaryStore store = MakeStore(options, 1);
  EXPECT_FALSE(store.Append(5, 1).ok());
  EXPECT_FALSE(store.Append(0, 0).ok());
  EXPECT_FALSE(store.Append(0, -3).ok());
  tape::SegmentId capacity =
      store.library().model(0).geometry().total_segments();
  EXPECT_FALSE(store.Append(0, capacity + 1).ok());
  EXPECT_TRUE(store.Append(0, capacity).ok());
  EXPECT_EQ(store.Append(0, 1).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace serpentine::store
