#include "fault/injector.hpp"

#include <algorithm>

namespace uparc::fault {
namespace {

/// Default knob values where SiteConfig::param is left at 0.
constexpr unsigned kDefaultStallCycles = 64;
constexpr double kDefaultKeepFraction = 0.5;

}  // namespace

FaultInjector::FaultInjector(sim::Simulation& sim, std::string name, FaultPlan plan)
    : Module(sim, std::move(name)), plan_(plan) {
  reset();
}

void FaultInjector::reset() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    // Independent splitmix-spaced stream per site: the interleaving of
    // opportunities across sites cannot perturb any one site's draws.
    states_[i].prng.reseed(plan_.seed + (i + 1) * 0xD1B54A32D192ED03ULL);
    states_[i].opportunities = 0;
    states_[i].fires = 0;
    states_[i].burst_left = 0;
  }
}

u64 FaultInjector::total_fires() const noexcept {
  u64 total = 0;
  for (const auto& st : states_) total += st.fires;
  return total;
}

bool FaultInjector::should_fire(FaultSite site) {
  const SiteConfig& cfg = plan_.at(site);
  if (!cfg.armed()) return false;
  SiteState& st = state(site);
  ++st.opportunities;
  if (st.burst_left > 0) {
    --st.burst_left;
    ++st.fires;
    metrics().counter(name() + ".fires." + to_string(site)).add();
    return true;
  }
  if (st.fires >= cfg.max_fires) return false;
  if (st.opportunities <= cfg.after) return false;
  if (!st.prng.chance(cfg.rate)) return false;
  ++st.fires;
  st.burst_left = cfg.burst > 0 ? cfg.burst - 1 : 0;
  metrics().counter(name() + ".fires." + to_string(site)).add();
  return true;
}

u32 FaultInjector::flip_bit(FaultSite site, u32 value) {
  return value ^ (u32{1} << state(site).prng.below(32));
}

void FaultInjector::arm(core::Uparc& uparc, icap::Icap& icap) {
  arm_bram(uparc.bram());
  arm_decompressor(uparc.decompressor());
  arm_preloader(uparc.preloader());
  arm_dcm(uparc.dyclogen().dcm(clocking::ClockId::kReconfig));
  arm_icap(icap);
}

void FaultInjector::arm_bram(mem::Bram& bram) {
  bram.set_read_tap([this](std::size_t, u32 value) {
    return should_fire(FaultSite::kBramRead) ? flip_bit(FaultSite::kBramRead, value)
                                             : value;
  });
}

void FaultInjector::arm_ddr2(mem::Ddr2& ddr2) {
  ddr2.set_read_tap([this](std::size_t, u32 value) {
    return should_fire(FaultSite::kDdr2Read) ? flip_bit(FaultSite::kDdr2Read, value)
                                             : value;
  });
  ddr2.set_stall_tap([this]() -> unsigned {
    if (!should_fire(FaultSite::kDdr2Stall)) return 0;
    const double param = plan_.at(FaultSite::kDdr2Stall).param;
    return param > 0 ? static_cast<unsigned>(param) : kDefaultStallCycles;
  });
}

void FaultInjector::arm_compact_flash(mem::CompactFlash& cf) {
  cf.set_sector_tap([this](std::size_t, Bytes& sector) {
    if (sector.empty() || !should_fire(FaultSite::kCfSector)) return;
    SiteState& st = state(FaultSite::kCfSector);
    const std::size_t pos = st.prng.below(sector.size());
    sector[pos] = static_cast<u8>(sector[pos] ^ (u8{1} << st.prng.below(8)));
  });
}

void FaultInjector::arm_decompressor(core::DecompressorUnit& decomp) {
  decomp.set_input_tap([this](u32 word) {
    return should_fire(FaultSite::kDecompInput)
               ? flip_bit(FaultSite::kDecompInput, word)
               : word;
  });
}

void FaultInjector::arm_preloader(manager::Preloader& preloader) {
  preloader.set_truncate_tap([this](std::size_t full_words) {
    if (!should_fire(FaultSite::kPreloadTruncate)) return full_words;
    const double param = plan_.at(FaultSite::kPreloadTruncate).param;
    const double keep = param > 0 ? std::min(param, 1.0) : kDefaultKeepFraction;
    return static_cast<std::size_t>(static_cast<double>(full_words) * keep);
  });
}

void FaultInjector::arm_dcm(icap::Dcm& dcm) {
  dcm.set_lock_fault([this] { return should_fire(FaultSite::kDcmLockFail); });
}

void FaultInjector::arm_icap(icap::Icap& icap) {
  icap.set_write_tap([this](u32& word) {
    if (should_fire(FaultSite::kIcapCorrupt)) {
      word = flip_bit(FaultSite::kIcapCorrupt, word);
    }
    return should_fire(FaultSite::kIcapAbort);
  });
}

void FaultInjector::schedule_lock_loss(icap::Dcm& dcm, TimePs at) {
  sim_.schedule_at(at, [&dcm] { dcm.drop_lock(); });
}

}  // namespace uparc::fault
