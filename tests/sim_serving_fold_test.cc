// ServingCore's router bid against a full re-price. The core prices a bid
// as one planner step past a running fold of its queue; this test keeps
// its own copy of the queue (every push, minus sheds and answers) and,
// after every Push and every Step, re-prices the whole chain from the
// drive head the way the fold replaced: same-cartridge runs through
// sched::EstimateScheduleSeconds, the rewind plus the exchange at every
// cartridge change. The two must agree bit for bit, through faults, the
// breaker, depth-cap and deadline sheds, and capped priority dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "serpentine/sched/estimator.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/tape/params.h"

namespace serpentine::sim {
namespace {

using tape::SegmentId;

/// The chain price a bid must equal: the requests in push order from the
/// head of the mounted cartridge.
double RePrice(const std::vector<const tape::LocateModel*>& models,
               double exchange_seconds, int mounted, SegmentId head,
               const std::vector<std::pair<int, SegmentId>>& chain) {
  double total = 0.0;
  int cart = mounted;
  size_t i = 0;
  while (i < chain.size()) {
    if (chain[i].first != cart) {
      total += models[cart]->RewindSeconds(head) + exchange_seconds;
      cart = chain[i].first;
      head = 0;
    }
    sched::Schedule plan;
    plan.algorithm = sched::Algorithm::kFifo;
    plan.initial_position = head;
    while (i < chain.size() && chain[i].first == cart) {
      plan.order.push_back(sched::Request{chain[i].second, 1});
      ++i;
    }
    total += sched::EstimateScheduleSeconds(*models[cart], plan, {}, &head);
  }
  return total;
}

class ServingFoldTest : public ::testing::TestWithParam<int> {
 protected:
  ServingFoldTest() {
    for (int c = 0; c < GetParam(); ++c) {
      owned_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
          tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), c + 1),
          tape::Dlt4000Timings()));
      models_.push_back(owned_.back().get());
    }
  }

  /// Drives one core through `config`'s arrival stream, checking the bid
  /// at a few probes after every Push and Step.
  void DriveAndCheck(const OnlineServerConfig& config) {
    constexpr double kExchange = 45.0;
    SegmentId space = models_[0]->geometry().total_segments();
    for (const tape::LocateModel* m : models_) {
      space = std::min(space, m->geometry().total_segments());
    }
    std::vector<ServingRequest> arrivals = GenerateOnlineArrivals(config,
                                                                  space);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      arrivals[i].cartridge = static_cast<int>(
          (arrivals[i].segment + i) % models_.size());
    }

    ServingCore core(models_, config, config.seed, kExchange);
    std::vector<ServingRequest> queued;  // push order
    core.set_completion_callback(
        [&](const ServingRequest& r, double, bool) {
          auto it = std::find_if(
              queued.begin(), queued.end(),
              [&](const ServingRequest& q) { return q.id == r.id; });
          ASSERT_NE(it, queued.end());
          queued.erase(it);
        });
    size_t sheds_seen = 0;
    int64_t checks = 0;
    auto check = [&] {
      const std::vector<ShedRecord>& sheds = core.result().shed_records;
      for (; sheds_seen < sheds.size(); ++sheds_seen) {
        auto it = std::find_if(queued.begin(), queued.end(),
                               [&](const ServingRequest& q) {
                                 return q.id == sheds[sheds_seen].id;
                               });
        ASSERT_NE(it, queued.end());
        queued.erase(it);
      }
      ASSERT_EQ(static_cast<size_t>(core.queue_depth()), queued.size());
      std::vector<std::pair<int, SegmentId>> chain;
      for (const ServingRequest& q : queued) {
        chain.emplace_back(q.cartridge, q.segment);
      }
      const int last = static_cast<int>(models_.size()) - 1;
      const SegmentId head = core.head_position();
      for (const auto& [c, s] :
           {std::pair<int, SegmentId>{0, 1000},
            std::pair<int, SegmentId>{last, space - 7},
            std::pair<int, SegmentId>{core.mounted_cartridge(),
                                      std::min(head + 3, space - 1)}}) {
        chain.emplace_back(c, s);
        ASSERT_EQ(core.EstimateServiceSeconds(c, s),
                  RePrice(models_, kExchange, core.mounted_cartridge(),
                          head, chain))
            << "probe (" << c << ", " << s << ") at depth " << queued.size()
            << ", clock " << core.clock();
        chain.pop_back();
        ++checks;
      }
    };

    for (const ServingRequest& a : arrivals) {
      core.AdvanceInputBound(a.time);
      while (core.Step() == ServingStep::kRan) {
        ASSERT_NO_FATAL_FAILURE(check());
      }
      core.Push(a);
      queued.push_back(a);
      ASSERT_NO_FATAL_FAILURE(check());
    }
    core.FinishInput();
    while (core.Step() == ServingStep::kRan) {
      ASSERT_NO_FATAL_FAILURE(check());
    }
    core.FinishResult();
    EXPECT_TRUE(queued.empty());

    // The stream exercised what the fold must survive.
    const OnlineServerResult& r = core.result();
    EXPECT_GT(checks, 3 * config.total_requests);
    EXPECT_GT(r.shed, 0);
    EXPECT_GT(r.fault_retries, 0);
    EXPECT_GT(r.batches, 10);
    if (models_.size() > 1) {
      EXPECT_GT(core.cartridge_mounts(), 0);
    }
  }

  std::vector<std::unique_ptr<tape::Dlt4000LocateModel>> owned_;
  std::vector<const tape::LocateModel*> models_;
};

OnlineServerConfig OverloadedConfig() {
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 200.0;
  config.total_requests = 400;
  config.seed = 11;
  config.faults.transient_read_rate = 0.05;
  config.faults.locate_overshoot_rate = 0.03;
  config.faults.permanent_error_rate = 0.01;
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 2;
  config.admission.enabled = true;
  config.admission.max_queue_depth = 24;
  config.dispatch_max_batch = 6;
  return config;
}

TEST_P(ServingFoldTest, BidEqualsFullRePriceUnderDepthShedding) {
  DriveAndCheck(OverloadedConfig());
}

TEST_P(ServingFoldTest, BidEqualsFullRePriceUnderPriorityDispatch) {
  OnlineServerConfig config = OverloadedConfig();
  config.priority_classes = 3;
  config.max_wait_cycles = 4;
  DriveAndCheck(config);
}

TEST_P(ServingFoldTest, BidEqualsFullRePriceUnderDeadlineShedding) {
  OnlineServerConfig config = OverloadedConfig();
  config.admission.max_queue_depth = 0;
  config.deadline_seconds = 900.0;
  config.deadline_spread = 2.0;
  DriveAndCheck(config);
}

INSTANTIATE_TEST_SUITE_P(Cartridges, ServingFoldTest,
                         ::testing::Values(1, 3));

}  // namespace
}  // namespace serpentine::sim
