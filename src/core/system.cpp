#include "core/system.hpp"

#include <stdexcept>

#include "obs/chrome_trace.hpp"

namespace uparc::core {
namespace {

/// The event queue drained but the completion callback never fired — a
/// gated clock, an unlocked DCM, or a starved decompressor left the
/// operation dangling. Classified instead of thrown so callers (and the
/// RecoveryManager) can act on it.
ctrl::ReconfigResult stalled_result(sim::Simulation& sim, std::string what) {
  ctrl::ReconfigResult r;
  r.success = false;
  r.error = std::move(what);
  r.cause = ErrorCause::kStalled;
  r.start = sim.now();
  r.end = sim.now();
  return r;
}

}  // namespace

System::System(SystemConfig config)
    : config_(config), rail_(std::make_unique<power::Rail>(sim_, "vccint")) {
  if (config_.trace) {
    tracer_ = std::make_unique<obs::Tracer>(sim_);
    tracer_->set_energy_probe(
        [this](TimePs t0, TimePs t1) { return rail_->energy_uj(t0, t1); });
    sim_.set_tracer(tracer_.get());
  }
  plane_ = std::make_unique<icap::ConfigPlane>(sim_, "config_plane", config_.uparc.device);
  icap_ = std::make_unique<icap::Icap>(sim_, "icap", *plane_);
  uparc_ = std::make_unique<Uparc>(sim_, "uparc", *icap_, config_.uparc, rail_.get());
  if (config_.with_cache) {
    auto policy = cache::make_eviction_policy(config_.cache_policy);
    if (policy == nullptr) {
      throw std::invalid_argument("System: unknown cache_policy: " + config_.cache_policy);
    }
    cache_ = std::make_unique<cache::BitstreamCache>(sim_, "cache", config_.cache,
                                                     std::move(policy));
    uparc_->set_cache(cache_.get());
  }
}

std::string System::trace_json() {
  if (tracer_ == nullptr) return "{}";
  tracer_->end_all();
  std::vector<obs::CounterTrack> extra;
  if (!rail_->steps().empty()) {
    obs::CounterTrack track;
    track.name = "vccint_mw";
    for (const power::RailStep& s : rail_->steps()) {
      track.samples.push_back({s.time, s.total_mw});
    }
    extra.push_back(std::move(track));
  }
  return obs::to_chrome_trace(*tracer_, extra);
}

ctrl::ReconfigResult System::reconfigure_blocking() {
  std::optional<ctrl::ReconfigResult> result;
  uparc_->reconfigure([&](const ctrl::ReconfigResult& r) { result = r; });
  sim_.run();
  if (!result) {
    return stalled_result(sim_, "System: simulation drained mid-reconfiguration");
  }
  return *result;
}

manager::RecoveryOutcome System::run_recovery_blocking(const bits::PartialBitstream& bs,
                                                       manager::RecoveryPolicy policy) {
  if (recovery_ == nullptr) {
    recovery_ = std::make_unique<manager::RecoveryManager>(sim_, "recovery", *uparc_,
                                                           rail_.get());
  }
  recovery_->policy() = policy;
  std::optional<manager::RecoveryOutcome> outcome;
  recovery_->run(bs, [&](const manager::RecoveryOutcome& o) { outcome = o; });
  sim_.run();
  if (!outcome) {
    // Cannot happen while the watchdog is armed, but fail closed anyway.
    manager::RecoveryOutcome o;
    o.final_result = stalled_result(sim_, "System: simulation drained mid-recovery");
    o.start = o.final_result.start;
    o.end = o.final_result.end;
    return o;
  }
  return *outcome;
}

txn::TxnOutcome System::run_transaction_blocking(const std::string& region,
                                                 const std::string& module,
                                                 const bits::PartialBitstream& image,
                                                 txn::TxnPolicy policy) {
  if (txn_ == nullptr) {
    txn_ = std::make_unique<txn::TxnManager>(sim_, "txn", *uparc_, *icap_, rail_.get(),
                                             policy);
  }
  txn_->policy() = policy;
  std::optional<txn::TxnOutcome> outcome;
  txn_->execute(region, module, image, [&](const txn::TxnOutcome& o) { outcome = o; });
  sim_.run();
  if (!outcome) {
    // The recovery watchdog bounds every phase, so a drained queue without
    // a terminal transaction should be unreachable; fail closed regardless.
    txn::TxnOutcome o;
    o.terminal = txn::TxnPhase::kFailed;
    o.region = region;
    o.module = module;
    o.error = "System: simulation drained mid-transaction";
    o.start = sim_.now();
    o.end = sim_.now();
    return o;
  }
  return *outcome;
}

std::optional<clocking::MdChoice> System::set_frequency_blocking(Frequency target) {
  auto choice = uparc_->set_frequency(target);
  sim_.run();  // drain the relock event
  return choice;
}

std::optional<manager::AdaptationPlan> System::adapt_blocking(manager::FrequencyPolicy policy,
                                                              TimePs deadline) {
  auto plan = uparc_->adapt(policy, deadline);
  sim_.run();
  return plan;
}

ctrl::ReconfigResult System::swap_decompressor_blocking(compress::CodecId codec) {
  std::optional<ctrl::ReconfigResult> result;
  uparc_->swap_decompressor(codec, [&](const ctrl::ReconfigResult& r) { result = r; });
  sim_.run();
  if (!result) {
    return stalled_result(sim_, "System: simulation drained mid-decompressor-swap");
  }
  return *result;
}

std::unique_ptr<ctrl::ReconfigController> System::make_baseline(std::string_view kind) {
  if (baseline_mb_ == nullptr) {
    baseline_mb_ = std::make_unique<manager::MicroBlaze>(sim_, "baseline_microblaze");
  }
  power::Rail* rail = rail_.get();
  if (kind == "xps_hwicap_cf") {
    return std::make_unique<ctrl::XpsHwicap>(sim_, "xps_cf", *baseline_mb_, *icap_,
                                             ctrl::XpsSource::kCompactFlash, rail);
  }
  if (kind == "xps_hwicap_cached") {
    return std::make_unique<ctrl::XpsHwicap>(sim_, "xps_cached", *baseline_mb_, *icap_,
                                             ctrl::XpsSource::kCached, rail);
  }
  if (kind == "xps_hwicap_unopt") {
    return std::make_unique<ctrl::XpsHwicap>(sim_, "xps_unopt", *baseline_mb_, *icap_,
                                             ctrl::XpsSource::kUnoptimized, rail);
  }
  if (kind == "BRAM_HWICAP") {
    return std::make_unique<ctrl::BramHwicap>(sim_, "bram_hwicap", *icap_,
                                              ctrl::BramHwicapParams{}, rail);
  }
  if (kind == "MST_ICAP") {
    return std::make_unique<ctrl::MstIcap>(sim_, "mst_icap", *icap_, ctrl::MstIcapParams{},
                                           rail);
  }
  if (kind == "FaRM") {
    return std::make_unique<ctrl::Farm>(sim_, "farm", *icap_, ctrl::FarmParams{}, rail);
  }
  if (kind == "FlashCAP") {
    return std::make_unique<ctrl::FlashCap>(sim_, "flashcap", *icap_, ctrl::FlashCapParams{},
                                            rail);
  }
  return nullptr;
}

ctrl::ReconfigResult System::run_controller_blocking(ctrl::ReconfigController& c,
                                                     const bits::PartialBitstream& bs) {
  ctrl::ReconfigResult result;
  Status st = c.stage(bs);
  if (!st.ok()) {
    result.error = st.error().message;
    result.cause = st.error().cause;
    return result;
  }
  std::optional<ctrl::ReconfigResult> got;
  c.reconfigure([&](const ctrl::ReconfigResult& r) { got = r; });
  sim_.run();
  if (!got) {
    return stalled_result(sim_, "System: simulation drained mid-controller-run");
  }
  return *got;
}

}  // namespace uparc::core
