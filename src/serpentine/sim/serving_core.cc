#include "serpentine/sim/serving_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sim {
namespace {

/// Stream index of the online extras rand48 stream (priorities, deadline
/// multipliers), derived from config.seed. Any fixed value works; it only
/// has to differ from the replication indices RunReplicated* uses, and it
/// must never change — the pinned determinism tests depend on it.
constexpr int64_t kOnlineExtrasStream = 1000003;

}  // namespace

std::vector<ServingRequest> GenerateOnlineArrivals(
    const OnlineServerConfig& config, tape::SegmentId segment_space) {
  const bool deadlines_enabled = std::isfinite(config.deadline_seconds);
  const bool priorities_enabled = config.priority_classes > 1;

  // Per arrival: an exponential gap, then a uniform segment. Priorities and
  // deadline multipliers come from a *separate* derived stream, consumed
  // only when those features are on, so the arrival times and segments
  // never shift.
  Lrand48 rng(config.seed);
  Lrand48 extras_rng;
  extras_rng.SeedState(DeriveRand48State(config.seed, kOnlineExtrasStream));
  std::vector<ServingRequest> arrivals;
  arrivals.reserve(config.total_requests);
  double t = 0.0;
  double mean_gap = 3600.0 / config.arrival_rate_per_hour;
  for (int64_t i = 0; i < config.total_requests; ++i) {
    double u = rng.NextDouble();
    t += -std::log(1.0 - u) * mean_gap;
    ServingRequest req;
    req.time = t;
    req.segment = rng.NextBounded(segment_space);
    req.id = (static_cast<int64_t>(config.seed) << 32) | i;
    if (priorities_enabled) {
      req.priority =
          static_cast<int>(extras_rng.NextBounded(config.priority_classes));
    }
    if (deadlines_enabled) {
      double mult = 1.0;
      if (config.deadline_spread > 0.0) {
        mult += config.deadline_spread * extras_rng.NextDouble();
      }
      req.deadline = req.time + config.deadline_seconds * mult;
    }
    arrivals.push_back(req);
  }
  return arrivals;
}

void FinalizeOnlineServerResult(OnlineServerResult* result,
                                std::vector<double>* responses,
                                double batch_sum, double end_clock,
                                double first_arrival_seconds) {
  if (result->batches > 0) {
    result->mean_batch_size = batch_sum / result->batches;
  }
  result->makespan_seconds = end_clock - first_arrival_seconds;
  result->utilization =
      result->makespan_seconds > 0
          ? result->drive_busy_seconds / result->makespan_seconds
          : 0.0;
  if (!responses->empty()) {
    std::sort(responses->begin(), responses->end());
    double sum = 0.0;
    for (double r : *responses) sum += r;
    result->mean_response_seconds = sum / responses->size();
    result->p95_response_seconds =
        (*responses)[static_cast<size_t>(0.95 * (responses->size() - 1))];
    result->p99_response_seconds =
        (*responses)[static_cast<size_t>(0.99 * (responses->size() - 1))];
    result->max_response_seconds = responses->back();
  }
  if (result->makespan_seconds > 0) {
    result->throughput_per_hour = (result->completed + result->failed) /
                                  (result->makespan_seconds / 3600.0);
  }
}

ServingCore::ServingCore(std::vector<const tape::LocateModel*> models,
                         const OnlineServerConfig& config,
                         int64_t fault_stream, double mount_exchange_seconds)
    : models_(std::move(models)),
      config_(config),
      mount_exchange_seconds_(mount_exchange_seconds),
      deadlines_enabled_(std::isfinite(config.deadline_seconds)) {
  SERPENTINE_CHECK(!models_.empty());
  for (const tape::LocateModel* m : models_) SERPENTINE_CHECK(m != nullptr);

  // Fault process, decorrelated per (fault seed, stream) pair; one process
  // per library, shared by every cartridge (it models the drive, not the
  // tape).
  if (config_.faults.any()) {
    injector_ = std::make_unique<drive::FaultInjector>(config_.faults);
    injector_->ReseedState(
        DeriveRand48State(config_.faults.seed, fault_stream));
  }

  // One Model→Fault stack per cartridge; with the breaker armed a single
  // HealthDrive (the breaker guards the shared physical drive) is
  // repointed at the mounted cartridge's stack on every switch. With one
  // cartridge and the breaker disarmed the stack is FaultDrive(ModelDrive).
  base_drives_.reserve(models_.size());
  fault_drives_.reserve(models_.size());
  for (const tape::LocateModel* m : models_) {
    base_drives_.push_back(std::make_unique<drive::ModelDrive>(*m));
    fault_drives_.push_back(std::make_unique<drive::FaultDrive>(
        base_drives_.back().get(), injector_.get()));
  }
  drive_ = fault_drives_[0].get();
  if (config_.breaker_enabled) {
    health_ = std::make_unique<drive::HealthDrive>(fault_drives_[0].get(),
                                                   config_.breaker);
    drive_ = health_.get();
  }

  // The registry entry for the configured algorithm (the READ-bounded
  // build) and the degradation ladder, resolved once (validation
  // guaranteed the names).
  algorithm_entry_ =
      sched::Registry::Default().Find(sched::AlgorithmName(config_.algorithm));
  SERPENTINE_CHECK(algorithm_entry_ != nullptr);
  if (config_.degradation.enabled) {
    rungs_.reserve(config_.degradation.rungs.size());
    for (const std::string& name : config_.degradation.rungs) {
      rungs_.push_back(sched::Registry::Default().Find(name));
      SERPENTINE_CHECK(rungs_.back() != nullptr);
    }
  }
  cpu_budget_active_ = config_.degradation.enabled &&
                       std::isfinite(config_.degradation.cpu_budget_seconds);
}

void ServingCore::Push(const ServingRequest& request) {
  SERPENTINE_CHECK(!stream_done_);
  SERPENTINE_CHECK_GE(request.time, input_bound_);
  SERPENTINE_CHECK_GE(request.cartridge, 0);
  SERPENTINE_CHECK_LT(request.cartridge, static_cast<int>(models_.size()));
  routed_.push_back(request);
  if (queue_fold_.has_value()) {
    Extend(&*queue_fold_, request.cartridge, request.segment);
  }
  input_bound_ = request.time;
}

void ServingCore::AdvanceInputBound(double t) {
  SERPENTINE_CHECK(!stream_done_);
  input_bound_ = std::max(input_bound_, t);
}

void ServingCore::FinishInput() { stream_done_ = true; }

bool ServingCore::breaker_open() const {
  return health_ != nullptr &&
         health_->breaker().state() == drive::BreakerState::kOpen;
}

void ServingCore::Extend(ChainFold* fold, int cartridge,
                         tape::SegmentId segment) const {
  if (cartridge != fold->cartridge) {
    // Close the open run, then charge the single-reel rewind of its
    // cartridge plus the exchange; the new run starts at BOT.
    fold->closed += fold->locate + fold->read;
    fold->closed += models_[fold->cartridge]->RewindSeconds(
                        fold->planner.head()) +
                    mount_exchange_seconds_;
    fold->cartridge = cartridge;
    fold->planner = sched::StepPlanner(*models_[cartridge], 0);
    fold->locate = 0.0;
    fold->read = 0.0;
  }
  sched::Step step = fold->planner.Next(sched::Request{segment, 1});
  fold->locate += step.locate_seconds;
  fold->read += step.read_seconds;
}

const ServingCore::ChainFold& ServingCore::PendingFold() const {
  if (!pending_fold_.has_value()) {
    pending_fold_.emplace(ChainFold{
        0.0, mounted_, sched::StepPlanner(*models_[mounted_],
                                          drive_->Position())});
    for (const ServingRequest& p : pending_) {
      Extend(&*pending_fold_, p.cartridge, p.segment);
    }
  }
  return *pending_fold_;
}

const ServingCore::ChainFold& ServingCore::QueueFold() const {
  if (!queue_fold_.has_value()) {
    queue_fold_.emplace(PendingFold());
    for (const ServingRequest& r : routed_) {
      Extend(&*queue_fold_, r.cartridge, r.segment);
    }
  }
  return *queue_fold_;
}

double ServingCore::EstimateServiceSeconds(int cartridge,
                                           tape::SegmentId segment) const {
  ChainFold bid = QueueFold();
  Extend(&bid, cartridge, segment);
  return bid.total();
}

bool ServingCore::AdmitDue() {
  bool any = false;
  // Admit (or shed) everything routed here that has arrived by `clock_`.
  while (!routed_.empty() && routed_.front().time <= clock_) {
    ServingRequest a = routed_.front();
    routed_.pop_front();
    any = true;
    ++result_.arrivals;
    obs::IncrementCounter("online.arrivals");

    Status verdict = OkStatus();
    if (config_.admission.enabled) {
      if (config_.admission.max_queue_depth > 0 &&
          static_cast<int>(pending_.size()) >=
              config_.admission.max_queue_depth) {
        verdict = ResourceExhaustedError(
            "admission: queue depth " + std::to_string(pending_.size()) +
            " at capacity " +
            std::to_string(config_.admission.max_queue_depth));
      } else if (std::isfinite(a.deadline)) {
        // FIFO, because admission must answer before the batch is
        // scheduled; the real scheduler only does better, so the bound
        // errs toward shedding.
        ChainFold admitted = PendingFold();
        Extend(&admitted, a.cartridge, a.segment);
        double estimate = admitted.total();
        double eta = clock_ + config_.admission.slack * estimate;
        if (eta > a.deadline) {
          verdict = DeadlineExceededError(
              "admission: deadline at " + std::to_string(a.deadline) +
              "s infeasible (estimated completion " + std::to_string(eta) +
              "s from head position " + std::to_string(drive_->Position()) +
              ")");
        }
      }
    }
    if (!verdict.ok()) {
      // `a` leaves the middle of the chain the queue fold priced.
      queue_fold_.reset();
      ++result_.shed;
      result_.shed_records.push_back(
          ShedRecord{a.id, a.time, a.priority, verdict});
      obs::IncrementCounter("online.shed");
      obs::TraceInstant(obs::TraceClock::kVirtual, "online", "shed", clock_);
      continue;
    }

    pending_.push_back(a);
    if (pending_fold_.has_value()) {
      Extend(&*pending_fold_, a.cartridge, a.segment);
    }
    ++result_.admitted;
    obs::IncrementCounter("online.admitted");
    if (obs::TraceRecorder* rec = obs::TraceRecorder::active()) {
      rec->AsyncBegin(obs::TraceClock::kVirtual, "online", "request", a.id,
                      a.time);
      rec->CounterEvent(obs::TraceClock::kVirtual, "online.depth", a.time,
                        static_cast<double>(pending_.size()));
    }
  }
  return any;
}

ServingStep ServingCore::Step() {
  AdmitDue();

  bool no_more = stream_done_ && routed_.empty();
  if (pending_.empty() && no_more) return ServingStep::kDone;
  // Refuse to act at a virtual time an unrouted arrival could still
  // precede: everything below inspects or advances the clock, and the
  // trajectory must be independent of when the caller interleaves pushes.
  if (!stream_done_ && clock_ >= input_bound_) return ServingStep::kNeedInput;

  // Dispatch-policy deadline of the oldest pending request, computed once
  // so the policy test and the idle target agree bit for bit (comparing a
  // recomputed `clock - front` against max_wait can disagree with
  // `front + max_wait` by one ULP and spin forever).
  double dispatch_deadline = std::numeric_limits<double>::infinity();
  if (!pending_.empty() && std::isfinite(config_.dispatch_max_wait_seconds)) {
    dispatch_deadline =
        pending_.front().time + config_.dispatch_max_wait_seconds;
  }
  bool policy_fires =
      !pending_.empty() &&
      (static_cast<int>(pending_.size()) >= config_.dispatch_min_batch ||
       clock_ >= dispatch_deadline || no_more);

  if (!policy_fires) {
    double next_time = dispatch_deadline;
    if (!routed_.empty()) {
      next_time = std::min(next_time, routed_.front().time);
    } else if (!stream_done_ && next_time > input_bound_) {
      // The next wake-up is an arrival the caller has not routed yet.
      return ServingStep::kNeedInput;
    }
    SERPENTINE_CHECK(std::isfinite(next_time));
    SERPENTINE_CHECK_GT(next_time, clock_);
    clock_ = next_time;
    return ServingStep::kRan;
  }

  Dispatch();
  return ServingStep::kRan;
}

void ServingCore::Dispatch() {
  // The batch leaves the queue and moves the head, maybe the cartridge.
  pending_fold_.reset();
  queue_fold_.reset();

  // ---- batch selection ----
  // Uncapped: everything pending boards in arrival order (the queue-sim
  // batch, bit for bit). Capped: over-aged requests board first (the
  // aging bound beats everything, including the cap), then priority
  // classes in arrival order.
  size_t depth_at_dispatch = pending_.size();
  std::vector<ServingRequest> members;
  if (config_.dispatch_max_batch <= 0 ||
      depth_at_dispatch <=
          static_cast<size_t>(config_.dispatch_max_batch)) {
    members.assign(pending_.begin(), pending_.end());
    pending_.clear();
  } else if (config_.max_wait_cycles == 0 && config_.priority_classes <= 1) {
    // Fast path: with no aging bound nothing is forced and with one
    // priority class every sort key ties, so the stable sort below is the
    // identity permutation — the batch is simply the oldest
    // dispatch_max_batch pending requests. Skipping the O(depth log depth)
    // sort keeps saturated million-request runs tractable.
    size_t take = static_cast<size_t>(config_.dispatch_max_batch);
    members.assign(pending_.begin(), pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);
  } else {
    std::vector<size_t> order(depth_at_dispatch);
    std::iota(order.begin(), order.end(), size_t{0});
    auto forced = [&](size_t i) {
      return config_.max_wait_cycles > 0 &&
             pending_[i].waited_cycles >= config_.max_wait_cycles - 1;
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      bool fa = forced(a);
      bool fb = forced(b);
      if (fa != fb) return fa;
      return pending_[a].priority < pending_[b].priority;
    });
    size_t take = static_cast<size_t>(config_.dispatch_max_batch);
    size_t forced_count = 0;
    for (size_t i = 0; i < depth_at_dispatch; ++i) {
      if (forced(i)) ++forced_count;
    }
    take = std::max(take, forced_count);
    std::vector<bool> selected(depth_at_dispatch, false);
    members.reserve(take);
    for (size_t k = 0; k < take; ++k) {
      selected[order[k]] = true;
      members.push_back(pending_[order[k]]);
    }
    std::deque<ServingRequest> left;
    for (size_t i = 0; i < depth_at_dispatch; ++i) {
      if (!selected[i]) left.push_back(pending_[i]);
    }
    pending_.swap(left);
  }
  for (const ServingRequest& m : members) {
    result_.max_wait_cycles_observed =
        std::max(result_.max_wait_cycles_observed, m.waited_cycles);
  }
  for (ServingRequest& p : pending_) ++p.waited_cycles;

  // ---- cartridge grouping ----
  // The mounted cartridge's sub-batch goes first (no exchange to pay),
  // then the rest ascending; arrival order is preserved within a group.
  // One cartridge ⇒ one group == members, and no switch ever happens.
  std::vector<std::pair<int, std::vector<ServingRequest>>> groups;
  if (models_.size() == 1) {
    groups.emplace_back(mounted_, members);
  } else {
    std::vector<int> carts;
    for (const ServingRequest& m : members) {
      if (std::find(carts.begin(), carts.end(), m.cartridge) == carts.end()) {
        carts.push_back(m.cartridge);
      }
    }
    std::sort(carts.begin(), carts.end(), [&](int a, int b) {
      if ((a == mounted_) != (b == mounted_)) return a == mounted_;
      return a < b;
    });
    for (int c : carts) {
      std::vector<ServingRequest> group;
      for (const ServingRequest& m : members) {
        if (m.cartridge == c) group.push_back(m);
      }
      groups.emplace_back(c, std::move(group));
    }
  }

  // ---- degradation ladder ----
  // The rung is chosen once per dispatch from the full queue depth; each
  // cartridge group's schedule is built at that rung.
  int rung = 0;
  const sched::RegistryEntry* entry = nullptr;
  if (config_.degradation.enabled) {
    int depth_rung = config_.degradation.queue_depth_step > 0
                         ? static_cast<int>(depth_at_dispatch) /
                               config_.degradation.queue_depth_step
                         : 0;
    rung = std::min(depth_rung + cpu_penalty_,
                    static_cast<int>(rungs_.size()) - 1);
    entry = rungs_[rung];
  }

  ++result_.batches;
  batch_sum_ += static_cast<double>(members.size());
  obs::IncrementCounter("online.batches");
  obs::ObserveHistogram("online.batch_size",
                        static_cast<double>(members.size()));
  obs::TraceCounter(obs::TraceClock::kVirtual, "online.depth", clock_, 0.0);
  double dispatch_clock = clock_;

  double build_seconds = 0.0;
  for (const auto& [cart, group] : groups) {
    if (cart != mounted_) SwitchCartridge(cart);
    const tape::LocateModel& model = *models_[mounted_];

    std::vector<sched::Request> batch;
    batch.reserve(group.size());
    for (const ServingRequest& m : group) {
      batch.push_back(sched::Request{m.segment, 1});
    }

    StatusOr<sched::Schedule> schedule = sched::Schedule{};
    if (config_.degradation.enabled) {
      auto t0 = std::chrono::steady_clock::now();
      schedule =
          entry->build(model, drive_->Position(), batch, entry->options);
      if (cpu_budget_active_) {
        build_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      }
    } else {
      schedule = algorithm_entry_->build(model, drive_->Position(), batch,
                                         config_.scheduler_options);
    }
    SERPENTINE_CHECK(schedule.ok());
    ExecuteGroup(group, batch, *schedule);
  }

  if (config_.degradation.enabled) {
    if (cpu_budget_active_) {
      if (build_seconds > config_.degradation.cpu_budget_seconds) {
        cpu_penalty_ =
            std::min(cpu_penalty_ + 1, static_cast<int>(rungs_.size()) - 1);
      } else {
        cpu_penalty_ = std::max(cpu_penalty_ - 1, 0);
      }
    }
    obs::SetGauge("online.degradation_rung", static_cast<double>(rung));
    if (rung > 0) {
      ++result_.degraded_batches;
      result_.degradation_max_rung =
          std::max(result_.degradation_max_rung, rung);
      obs::IncrementCounter("online.degraded_batches");
    }
  }

  if (obs::TraceRecorder::active() != nullptr) {
    obs::TraceComplete(obs::TraceClock::kVirtual, "online", "batch",
                       dispatch_clock, clock_,
                       "{\"size\":" + std::to_string(members.size()) + "}");
  }
}

void ServingCore::SwitchCartridge(int cartridge) {
  // Single-reel eject rule: rewind the mounted tape before the exchange.
  // The rewind is drive work; the exchange is robot/host time (tracked in
  // mount_seconds, not drive busy).
  double rewind = drive_->Rewind().times.rewind_seconds;
  clock_ += rewind + mount_exchange_seconds_;
  result_.drive_busy_seconds += rewind;
  mount_seconds_ += rewind + mount_exchange_seconds_;
  ++cartridge_mounts_;
  mounted_ = cartridge;
  drive::Drive* stack = fault_drives_[cartridge].get();
  if (health_ != nullptr) {
    // The breaker guards the physical drive, so its window and state
    // survive the swap; only the transport underneath changes.
    health_->set_inner(stack);
  } else {
    drive_ = stack;
  }
  obs::IncrementCounter("online.cartridge_mounts");
  obs::TraceInstant(obs::TraceClock::kVirtual, "online", "cartridge-switch",
                    clock_);
}

void ServingCore::ExecuteGroup(const std::vector<ServingRequest>& members,
                               const std::vector<sched::Request>& requests,
                               const sched::Schedule& schedule) {
  const tape::LocateModel& model = *models_[mounted_];

  // Completion matching, with deadline-miss accounting layered on.
  // Duplicates resolve to the oldest unmatched member.
  sched::OldestFirstMatcher matcher(requests);
  auto complete = [&](const sched::Request& request, double at, bool ok) {
    size_t i = matcher.Take(request);
    responses_.push_back(at - members[i].time);
    if (ok) {
      ++result_.completed;
      obs::IncrementCounter("online.completed");
    } else {
      ++result_.failed;
      obs::IncrementCounter("online.failed");
    }
    if (at > members[i].deadline) {
      ++result_.deadline_missed;
      obs::IncrementCounter("online.deadline_missed");
    }
    obs::ObserveHistogram("online.response_seconds", at - members[i].time);
    if (obs::TraceRecorder* rec = obs::TraceRecorder::active()) {
      rec->AsyncEnd(obs::TraceClock::kVirtual, "online", "request",
                    members[i].id, at);
    }
    if (on_complete_) on_complete_(members[i], at, ok);
  };

  auto spend = [&](double seconds) {
    clock_ += seconds;
    result_.drive_busy_seconds += seconds;
  };
  // A full-tape pass starts at BOT.
  if (schedule.full_tape_scan) {
    spend(model.LocateSeconds(drive_->Position(), 0));
  }

  RecoveryOptions recovery;
  recovery.retry = config_.fault_retry;
  recovery.scheduler_options = config_.scheduler_options;
  RecoveringExecutionResult res =
      RecoveringExecutor(*drive_, model, recovery)
          .Execute(schedule,
                   [&](const sched::Request& req, double step, bool ok) {
                     spend(step);
                     complete(req, clock_, ok);
                   });
  spend(res.tail_seconds);
  result_.fault_retries += res.retries;
  result_.drive_resets += res.drive_resets;
  result_.reschedules += res.reschedules;
  result_.permanent_errors += res.permanent_errors;
  result_.recovery_seconds += res.recovery_seconds;
  result_.breaker_wait_seconds += res.breaker_wait_seconds;
}

void ServingCore::FinishResult() {
  if (health_ != nullptr) {
    result_.breaker_fast_fails = health_->breaker().fast_fails();
    result_.breaker_transitions = health_->breaker().transitions();
  }
}

}  // namespace serpentine::sim
