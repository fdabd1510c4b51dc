#include "region/region_manager.hpp"

namespace uparc::region {

RegionManager::RegionManager(sim::Simulation& sim, std::string name, Floorplan floorplan,
                             const ModuleLibrary& library, core::Uparc& controller,
                             icap::ConfigPlane& plane)
    : Module(sim, std::move(name)),
      floorplan_(std::move(floorplan)),
      library_(library),
      controller_(controller),
      plane_(plane) {
  router_.set_metrics(&metrics());
}

std::string RegionManager::occupant(const std::string& region_name) const {
  const Region* r = floorplan_.find(region_name);
  return r == nullptr ? "" : r->occupant;
}

Status RegionManager::evict(const std::string& region_name) {
  Region* r = floorplan_.find(region_name);
  if (r == nullptr) return make_error("unknown region: " + region_name);
  r->occupant.clear();
  return Status::success();
}

void RegionManager::load(const std::string& module, const std::string& region_name,
                         LoadCallback done) {
  queue_.push_back(PendingLoad{module, region_name, sim_.now(), std::move(done)});
  pump();
}

void RegionManager::load_any(const std::string& module, LoadCallback done) {
  // Empty region = route when the load reaches the head of the queue, so
  // the decision sees the freshest occupancy and health state.
  queue_.push_back(PendingLoad{module, "", sim_.now(), std::move(done)});
  pump();
}

void RegionManager::set_transaction_manager(txn::TxnManager* txn) {
  txn_ = txn;
  router_.set_health(txn == nullptr ? nullptr : &txn->health());
}

void RegionManager::finish(PendingLoad job, LoadResult result) {
  result.module = job.module;
  result.region = job.region;
  result.queued_at = job.queued_at;
  result.finished_at = sim_.now();
  if (result.success) {
    ++loads_completed_;
  } else {
    ++loads_failed_;
  }
  observe_cost(job.module, result);
  in_flight_ = false;
  if (job.done) job.done(result);
  pump();
}

void RegionManager::observe_cost(const std::string& module, const LoadResult& result) {
  if (!result.success || result.software_fallback) return;
  constexpr double kAlpha = 0.3;  // EMA weight of the newest sample
  const double us = (result.finished_at - result.started_at).us();
  auto blend = [&](double& ema) { ema = ema < 0.0 ? us : ema + kAlpha * (us - ema); };
  CostModel& m = cost_models_[module];
  if (cache::is_hit(result.cache_tier)) {
    blend(m.warm_us);
    blend(global_warm_us_);
  } else {
    blend(m.cold_us);
    blend(global_cold_us_);
  }
  // Every successful stage admits the image, so the next load is warm.
  m.likely_cached = true;
}

TimePs RegionManager::estimate_load_cost(const std::string& module,
                                         TimePs default_cost) const {
  auto it = cost_models_.find(module);
  const CostModel* m = it == cost_models_.end() ? nullptr : &it->second;
  auto pick = [&](double own, double global) {
    if (own > 0.0) return TimePs::from_us(own);
    if (global > 0.0) return TimePs::from_us(global);
    return TimePs{};
  };
  if (m != nullptr && m->likely_cached) {
    const TimePs warm = pick(m->warm_us, global_warm_us_);
    if (warm != TimePs{}) return warm;
  }
  const TimePs cold = pick(m != nullptr ? m->cold_us : -1.0, global_cold_us_);
  return cold != TimePs{} ? cold : default_cost;
}

void RegionManager::pump() {
  if (in_flight_ || queue_.empty()) return;
  in_flight_ = true;
  PendingLoad job = std::move(queue_.front());
  queue_.pop_front();

  LoadResult result;
  result.started_at = sim_.now();

  Region* region = nullptr;
  if (job.region.empty()) {
    // Routed load: the router only returns schedulable regions; with every
    // region quarantined the load degrades to software fallback rather
    // than touching unhealthy fabric.
    const sched::RouteChoice choice = router_.pick(floorplan_, job.module);
    if (choice.region == nullptr) {
      result.software_fallback = true;
      result.error = choice.reason;
      ++software_fallbacks_;
      metrics().counter(name() + ".software_fallbacks").add();
      finish(std::move(job), std::move(result));
      return;
    }
    job.region = choice.region->name;
    region = floorplan_.find(job.region);
  } else {
    region = floorplan_.find(job.region);
    if (region == nullptr) {
      result.error = "unknown region: " + job.region;
      finish(std::move(job), std::move(result));
      return;
    }
    if (txn_ != nullptr && !txn_->health().schedulable(region->name)) {
      result.error = "region quarantined: " + region->name;
      metrics().counter(name() + ".placements_refused").add();
      finish(std::move(job), std::move(result));
      return;
    }
  }
  result.placement_schedulable =
      txn_ == nullptr || txn_->health().schedulable(region->name);

  auto instance = library_.instantiate(job.module, floorplan_, *region);
  if (!instance.ok()) {
    result.error = instance.error().message;
    finish(std::move(job), std::move(result));
    return;
  }
  std::shared_ptr<const bits::Image> image = std::move(instance).value();

  if (txn_ != nullptr) {
    dispatch_txn(std::move(job), std::move(result), region, std::move(image));
    return;
  }

  Status staged = controller_.stage(*image);
  result.cache_tier = controller_.last_stage_tier();
  if (cache::is_hit(result.cache_tier)) {
    metrics().counter(name() + ".cache_hits").add();
  }
  if (!staged.ok()) {
    result.error = staged.error().message;
    finish(std::move(job), std::move(result));
    return;
  }

  // Keep the instance for post-load verification of its frames.
  controller_.reconfigure([this, job = std::move(job), result = std::move(result), region,
                           image = std::move(image)](const ctrl::ReconfigResult& r) mutable {
    result.reconfig = r;
    if (!r.success) {
      result.error = r.error;
    } else if (!plane_.contains(image->bitstream().frames)) {
      result.error = "post-load verification failed: plane does not match module";
    } else {
      result.success = true;
      region->occupant = job.module;
      ++region->reconfigurations;
    }
    finish(std::move(job), std::move(result));
  });
}

void RegionManager::dispatch_txn(PendingLoad job, LoadResult result, Region* region,
                                 std::shared_ptr<const bits::Image> instance) {
  // Copy the name out first: the callback lambda move-captures `job`, and
  // argument evaluation order is unspecified — passing `job.module` directly
  // can read from the moved-from job.
  const std::string module = job.module;
  txn_->execute(region->name, module, std::move(instance),
                [this, job = std::move(job), result = std::move(result),
                 region](const txn::TxnOutcome& o) mutable {
    result.transactional = true;
    result.txn_id = o.txn_id;
    result.terminal = o.terminal;
    result.reconfig = o.forward.final_result;
    result.cache_tier = o.stage_cache_tier;
    if (cache::is_hit(result.cache_tier)) {
      metrics().counter(name() + ".cache_hits").add();
    }
    switch (o.terminal) {
      case txn::TxnPhase::kCommitted:
        result.success = true;
        region->occupant = job.module;
        ++region->reconfigurations;
        break;
      case txn::TxnPhase::kRolledBackLastGood:
        // Prior module verified back in place: occupancy stands.
        result.rolled_back = true;
        result.error = o.error;
        break;
      case txn::TxnPhase::kRolledBackBlank:
        result.rolled_back = true;
        result.error = o.error;
        region->occupant.clear();
        break;
      default:  // kFailed: region condemned, nothing schedulable remains
        result.error = o.error;
        region->occupant.clear();
        break;
    }
    finish(std::move(job), std::move(result));
  });
}

}  // namespace uparc::region
