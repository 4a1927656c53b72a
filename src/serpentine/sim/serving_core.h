// The online-serving state machine, extracted from RunOnlineServer so one
// identical engine can power both the single-library server and the fleet
// serving layer (fleet::RunFleet drives one ServingCore per library).
//
// The core is a pull-based coroutine-by-hand: the caller feeds routed
// arrivals with Push() in global time order and cranks Step() until it
// reports kNeedInput (the core refuses to act at a virtual time where an
// as-yet-unrouted arrival could still land) or kDone. Because the core
// only acts at clock instants provably covered by the pushed prefix of the
// arrival stream, its trajectory is a pure function of (pushed arrivals,
// FinishInput) — independent of how eagerly the caller interleaves pushes
// and steps. That property is what makes the fleet's 1-library pin exact:
// RunOnlineServer and fleet::RunFleet drive the same machine through the
// same sequence, so the results match bit for bit.
#ifndef SERPENTINE_SIM_SERVING_CORE_H_
#define SERPENTINE_SIM_SERVING_CORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/health_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/step_planner.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sim {

/// One request routed to a library's serving core. `segment` is physical
/// on `cartridge` of that library's tape set (the fleet router resolves
/// logical → physical before pushing; RunOnlineServer always pushes
/// cartridge 0).
struct ServingRequest {
  double time = 0.0;
  tape::SegmentId segment = 0;
  int cartridge = 0;
  /// Async-span id, unique across replications: (run seed << 32) | index.
  int64_t id = 0;
  int priority = 0;
  double deadline = std::numeric_limits<double>::infinity();
  /// Dispatch cycles this request has been left behind while queued.
  int waited_cycles = 0;
};

/// Outcome of one ServingCore::Step call.
enum class ServingStep {
  /// One action ran (admission, an idle clock jump, or a batch dispatch);
  /// call Step again.
  kRan,
  /// The core cannot prove its next action is safe until the caller either
  /// pushes the next routed arrival, raises the input bound, or calls
  /// FinishInput.
  kNeedInput,
  /// Input finished and every routed request has been answered.
  kDone,
};

/// Generates the Poisson arrival stream of RunOnlineServer (per arrival:
/// an exponential gap, then a uniform segment over `segment_space`), with
/// priorities and deadline multipliers
/// from the separate online-extras stream so enabling them never shifts
/// arrival times. The fleet passes its logical segment space; the
/// single-library server passes the tape's total_segments, reproducing its
/// historical stream exactly.
std::vector<ServingRequest> GenerateOnlineArrivals(
    const OnlineServerConfig& config, tape::SegmentId segment_space);

/// Shared tail arithmetic of OnlineServerResult: batch means, makespan,
/// utilization, sorted response percentiles, throughput. Used verbatim by
/// both RunOnlineServer and the fleet aggregation so a 1-library fleet's
/// totals are computed by the same expressions. Sorts `responses` in
/// place.
void FinalizeOnlineServerResult(OnlineServerResult* result,
                                std::vector<double>* responses,
                                double batch_sum, double end_clock,
                                double first_arrival_seconds);

/// One library's serving engine: admission control, aging, degradation
/// ladder, breaker-aware execution — the loop body of PR 6's
/// RunOnlineServer, generalized to many cartridges behind one drive.
///
/// Cartridge 0 starts mounted. When a dispatched batch spans cartridges,
/// the mounted cartridge's sub-batch executes first, then the rest in
/// ascending cartridge order; each switch charges the old cartridge's
/// rewind (single-reel eject rule) plus `mount_exchange_seconds` on the
/// virtual clock. With one cartridge no switch ever happens and the
/// engine's arithmetic is exactly the PR 6 loop.
class ServingCore {
 public:
  /// `models[c]` is cartridge c's locate model; all must outlive the core.
  /// Arrival-process knobs in `config` are ignored (arrivals are pushed by
  /// the caller); everything else — admission, deadlines, degradation,
  /// faults, breaker — applies to this core. `fault_stream` decorrelates
  /// the fault process (RunOnlineServer passes config.seed; the fleet
  /// derives a distinct stream per library). `config` must already be
  /// validated.
  ServingCore(std::vector<const tape::LocateModel*> models,
              const OnlineServerConfig& config, int64_t fault_stream,
              double mount_exchange_seconds = 0.0);

  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;

  /// Hands the core the next routed arrival. Pushes must be in
  /// non-decreasing time order across the whole stream.
  void Push(const ServingRequest& request);

  /// Promises that no future arrival routed here has time < `t` (the
  /// fleet calls this for every library when routing an arrival at t, so
  /// non-targeted cores can advance too). Monotone; Push(r) implies
  /// AdvanceInputBound(r.time).
  void AdvanceInputBound(double t);

  /// Declares the arrival stream exhausted; Step may then run to kDone.
  void FinishInput();

  /// Performs at most one action. See ServingStep.
  ServingStep Step();

  /// Observer invoked once per answered request, after the core's own
  /// accounting, with the original request, its virtual completion time,
  /// and whether it was answered OK. Null (the default) skips the call
  /// entirely — the callback only observes, so installing one never
  /// perturbs the trajectory. The stress harness uses it to credit
  /// tenants, release coalesced duplicates, and fill the segment cache.
  void set_completion_callback(
      std::function<void(const ServingRequest&, double, bool)> cb) {
    on_complete_ = std::move(cb);
  }

  // ---- router-facing snapshot ----
  double clock() const { return clock_; }
  /// Requests routed here and not yet dispatched (admitted + undelivered).
  int queue_depth() const {
    return static_cast<int>(pending_.size() + routed_.size());
  }
  int mounted_cartridge() const { return mounted_; }
  tape::SegmentId head_position() const { return drive_->Position(); }
  /// True while the armed breaker refuses work (always false when
  /// breaker_enabled is off).
  bool breaker_open() const;
  /// FIFO completion estimate (seconds from this core's clock) of every
  /// request queued here plus a candidate read at (cartridge, segment) —
  /// the router's service-time score, cartridge switches included. One
  /// planner step past the running fold of the queue (see ChainFold);
  /// observably pure.
  double EstimateServiceSeconds(int cartridge,
                                tape::SegmentId segment) const;

  // ---- results ----
  const OnlineServerResult& result() const { return result_; }
  std::vector<double>& responses() { return responses_; }
  double batch_sum() const { return batch_sum_; }
  /// Cartridge switches performed while serving (0 for one cartridge).
  int64_t cartridge_mounts() const { return cartridge_mounts_; }
  /// Virtual seconds spent on cartridge switches (rewind + exchange).
  double mount_seconds() const { return mount_seconds_; }
  /// Copies breaker tallies into result() (call once, after kDone).
  void FinishResult();

 private:
  bool AdmitDue();
  void Dispatch();
  /// Swaps `cartridge` under the drive stack: rewind the mounted tape,
  /// charge the exchange, repoint the breaker decorator.
  void SwitchCartridge(int cartridge);
  /// Runs `schedule` over one cartridge's `members`; `requests` holds
  /// each member's sched::Request, in the same order.
  void ExecuteGroup(const std::vector<ServingRequest>& members,
                    const std::vector<sched::Request>& requests,
                    const sched::Schedule& schedule);

  /// The FIFO price of the queue's requests in push order, as far as they
  /// have been folded in: every cartridge run before the open one, with
  /// the rewind and exchange into the open run, summed in `closed`; the
  /// open run's planner and its locate and read sums. Extending it adds in
  /// the order a full re-price of the chain would, run by run and step by
  /// step, so its total equals that re-price bit for bit.
  struct ChainFold {
    double closed = 0.0;
    int cartridge = 0;
    sched::StepPlanner planner;
    double locate = 0.0;
    double read = 0.0;

    double total() const { return closed + (locate + read); }
  };
  /// Folds one more FIFO read at (cartridge, segment) into `fold`.
  void Extend(ChainFold* fold, int cartridge, tape::SegmentId segment) const;
  /// The fold after pending_ (deadline admission prices against it) and
  /// after pending_ + routed_ (router bids), rebuilt from the drive head
  /// when stale: Dispatch stales both, a shed stales the second.
  const ChainFold& PendingFold() const;
  const ChainFold& QueueFold() const;

  std::vector<const tape::LocateModel*> models_;
  OnlineServerConfig config_;
  double mount_exchange_seconds_ = 0.0;
  bool deadlines_enabled_ = false;

  std::unique_ptr<drive::FaultInjector> injector_;
  std::vector<std::unique_ptr<drive::ModelDrive>> base_drives_;
  std::vector<std::unique_ptr<drive::FaultDrive>> fault_drives_;
  std::unique_ptr<drive::HealthDrive> health_;
  /// The execution stack of the mounted cartridge (health_ when armed).
  drive::Drive* drive_ = nullptr;
  int mounted_ = 0;

  /// Builds every batch when the degradation ladder is off.
  const sched::RegistryEntry* algorithm_entry_ = nullptr;
  std::vector<const sched::RegistryEntry*> rungs_;
  int cpu_penalty_ = 0;
  bool cpu_budget_active_ = false;

  double clock_ = 0.0;
  std::deque<ServingRequest> routed_;
  std::deque<ServingRequest> pending_;
  /// Caches behind PendingFold and QueueFold; empty when stale. A fresh
  /// queue fold implies a fresh pending fold.
  mutable std::optional<ChainFold> pending_fold_;
  mutable std::optional<ChainFold> queue_fold_;
  double input_bound_ = 0.0;
  bool stream_done_ = false;

  std::function<void(const ServingRequest&, double, bool)> on_complete_;

  OnlineServerResult result_;
  std::vector<double> responses_;
  double batch_sum_ = 0.0;
  int64_t cartridge_mounts_ = 0;
  double mount_seconds_ = 0.0;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_SERVING_CORE_H_
