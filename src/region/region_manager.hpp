// Region manager: the orchestration layer a deployed PR system runs on top
// of UPaRC. Owns the floorplan and the module library; `load()` relocates a
// module image to the target region, stages it, reconfigures, verifies the
// configuration plane, and updates occupancy. Loads are queued: one
// reconfiguration port, one in-flight load.
//
// With a TxnManager attached (set_transaction_manager), every load runs as
// a journaled transaction: commit updates occupancy, a rollback restores
// the previous occupant (or blanks the region), and quarantined regions
// refuse placements. `load_any()` adds health-aware routing: the
// sched::Router picks a schedulable region, or the load degrades to
// software fallback when every region is quarantined.
#pragma once

#include <deque>
#include <functional>
#include <map>

#include "core/uparc.hpp"
#include "region/module_library.hpp"
#include "sched/router.hpp"
#include "txn/transaction.hpp"

namespace uparc::region {

struct LoadResult {
  bool success = false;
  std::string error;
  std::string module;
  std::string region;
  TimePs queued_at{};
  TimePs started_at{};
  TimePs finished_at{};
  ctrl::ReconfigResult reconfig;  ///< underlying controller result
  /// Bitstream-cache tier that served the stage (kBypass without a cache).
  cache::CacheTier cache_tier = cache::CacheTier::kBypass;

  // Transactional-path fields (meaningful when a TxnManager is attached).
  bool transactional = false;
  u64 txn_id = 0;
  txn::TxnPhase terminal = txn::TxnPhase::kBegun;
  bool rolled_back = false;        ///< region verified back to last-good/blank
  bool software_fallback = false;  ///< no schedulable region: ran in software
  bool placement_schedulable = false;  ///< health verdict at placement time

  [[nodiscard]] TimePs queue_latency() const { return started_at - queued_at; }
  [[nodiscard]] TimePs total_latency() const { return finished_at - queued_at; }
};

using LoadCallback = std::function<void(const LoadResult&)>;

class RegionManager : public sim::Module {
 public:
  RegionManager(sim::Simulation& sim, std::string name, Floorplan floorplan,
                const ModuleLibrary& library, core::Uparc& controller, icap::ConfigPlane& plane);

  /// Queues a module load into a region. The callback fires when the load
  /// completes (or fails). Immediate errors (unknown region/module) are
  /// reported through the callback as well, synchronously.
  void load(const std::string& module, const std::string& region_name, LoadCallback done);

  /// Queues a module load with the target region chosen at dispatch time by
  /// the health-aware router (affinity > blank > healthy > least-worn).
  /// When every region is quarantined the load degrades to software
  /// fallback: the callback reports software_fallback=true and no fabric is
  /// touched.
  void load_any(const std::string& module, LoadCallback done);

  /// Routes every subsequent load through `txn` as a journaled transaction
  /// (verified commit, rollback to last-good/blank, health gating).
  void set_transaction_manager(txn::TxnManager* txn);
  [[nodiscard]] txn::TxnManager* transaction_manager() const noexcept { return txn_; }

  /// Marks a region blank (bookkeeping only; the fabric keeps the old
  /// configuration until something overwrites it, as in real hardware).
  [[nodiscard]] Status evict(const std::string& region_name);

  [[nodiscard]] const Floorplan& floorplan() const noexcept { return floorplan_; }
  [[nodiscard]] const ModuleLibrary& library() const noexcept { return library_; }
  /// Occupant module of a region ("" if blank / unknown region).
  [[nodiscard]] std::string occupant(const std::string& region_name) const;

  [[nodiscard]] u64 loads_completed() const noexcept { return loads_completed_; }
  [[nodiscard]] u64 loads_failed() const noexcept { return loads_failed_; }
  [[nodiscard]] u64 software_fallbacks() const noexcept { return software_fallbacks_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }

  /// Cache-aware service-time estimate for a routed load of `module`: an
  /// EMA of measured dispatch-to-finish latencies, split warm/cold by the
  /// bitstream-cache tier that served each load. Once a module has loaded
  /// successfully it is predicted warm (the cache admits every miss).
  /// Returns `default_cost` before any measurement. The admission layer's
  /// deadline-feasibility check is the consumer.
  [[nodiscard]] TimePs estimate_load_cost(const std::string& module,
                                          TimePs default_cost = TimePs::from_us(200)) const;

 private:
  struct PendingLoad {
    std::string module;
    std::string region;  ///< empty = route at dispatch time (load_any)
    TimePs queued_at;
    LoadCallback done;
  };

  void pump();
  void dispatch_txn(PendingLoad job, LoadResult result, Region* region,
                    std::shared_ptr<const bits::Image> instance);
  void finish(PendingLoad job, LoadResult result);
  void observe_cost(const std::string& module, const LoadResult& result);

  Floorplan floorplan_;
  const ModuleLibrary& library_;
  core::Uparc& controller_;
  icap::ConfigPlane& plane_;
  txn::TxnManager* txn_ = nullptr;
  sched::Router router_;
  std::deque<PendingLoad> queue_;
  bool in_flight_ = false;
  u64 loads_completed_ = 0;
  u64 loads_failed_ = 0;
  u64 software_fallbacks_ = 0;

  // Per-module measured-cost model for estimate_load_cost().
  struct CostModel {
    double warm_us = -1.0;  ///< EMA of cache-hit loads (-1 = no sample)
    double cold_us = -1.0;  ///< EMA of miss/bypass loads
    bool likely_cached = false;
  };
  std::map<std::string, CostModel> cost_models_;
  double global_warm_us_ = -1.0;
  double global_cold_us_ = -1.0;
};

}  // namespace uparc::region
