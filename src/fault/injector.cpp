#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace uparc::fault {
namespace {

/// Default knob value where SiteConfig::param is left at 0.
constexpr double kDefaultKeepFraction = 0.5;

/// Stream index of the first site. Site i draws from stream i + 1 +
/// kRetiredSites: three storage sites that no path armed once held streams
/// 1-3, and every recorded faulted run (soak, serve, crash sweep, the
/// perfbench fleet) replays only while the surviving sites keep theirs.
constexpr std::size_t kRetiredSites = 3;

/// Prng::chance(rate) as one integer comparison: uniform() is m * 2^-53
/// for m = next() >> 11, and m * 2^-53 < rate exactly when m <
/// ceil(rate * 2^53). Both the per-word and the quiet-run draws use it.
u64 fire_threshold(double rate) {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return u64{1} << 53;
  return static_cast<u64>(std::ceil(std::ldexp(rate, 53)));
}

/// Opportunities before `after` ends, which draw nothing.
u64 undrawn(const SiteConfig& cfg, u64 opportunities) {
  return cfg.after > opportunities ? cfg.after - opportunities : 0;
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulation& sim, std::string name, FaultPlan plan)
    : Module(sim, std::move(name)), plan_(plan) {
  reset();
}

void FaultInjector::reset() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    // Independent splitmix-spaced stream per site: the interleaving of
    // opportunities across sites cannot perturb any one site's draws.
    states_[i].prng.reseed(plan_.seed + (i + 1 + kRetiredSites) * 0xD1B54A32D192ED03ULL);
    states_[i].threshold = fire_threshold(plan_.sites[i].rate);
    states_[i].opportunities = 0;
    states_[i].fires = 0;
    states_[i].burst_left = 0;
    states_[i].quiet = 0;
    states_[i].fire_next = false;
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
  if (st.quiet > 0) {
    --st.quiet;
    return false;
  }
  const bool fire = std::exchange(st.fire_next, false) || (st.prng.next() >> 11) < st.threshold;
  if (!fire) return false;
  ++st.fires;
  st.burst_left = cfg.burst > 0 ? cfg.burst - 1 : 0;
  metrics().counter(name() + ".fires." + to_string(site)).add();
  return true;
}

u64 FaultInjector::quiet_run(FaultSite site, u64 n) {
  const SiteConfig& cfg = plan_.at(site);
  if (!cfg.armed()) return n;
  SiteState& st = state(site);
  if (st.burst_left > 0) return 0;
  if (st.fires >= cfg.max_fires) return n;
  const u64 free = undrawn(cfg, st.opportunities);
  while (!st.fire_next && free + st.quiet < n) {
    if ((st.prng.next() >> 11) < st.threshold) {
      st.fire_next = true;
    } else {
      ++st.quiet;
    }
  }
  return std::min(n, free + st.quiet);
}

void FaultInjector::pass(FaultSite site, u64 k) {
  const SiteConfig& cfg = plan_.at(site);
  if (!cfg.armed() || k == 0) return;
  SiteState& st = state(site);
  if (st.burst_left > 0) {
    throw std::logic_error("FaultInjector::pass inside a burst at " + std::string(to_string(site)));
  }
  if (st.fires < cfg.max_fires) {
    const u64 drawn = k - std::min(k, undrawn(cfg, st.opportunities));
    if (drawn > st.quiet) {
      throw std::logic_error("FaultInjector::pass past the quiet run at " +
                             std::string(to_string(site)));
    }
    st.quiet -= drawn;
  }
  st.opportunities += k;
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
  bram.set_read_tap(
      [this](std::size_t, u32 value) {
        return should_fire(FaultSite::kBramRead) ? flip_bit(FaultSite::kBramRead, value)
                                                 : value;
      },
      {[this](u64 n) { return quiet_run(FaultSite::kBramRead, n); },
       [this](u64 k) { pass(FaultSite::kBramRead, k); }});
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
  // Each write is an opportunity at both sites; a word passes untouched
  // only while neither fires.
  icap.set_write_tap(
      [this](u32& word) {
        if (should_fire(FaultSite::kIcapCorrupt)) {
          word = flip_bit(FaultSite::kIcapCorrupt, word);
        }
        return should_fire(FaultSite::kIcapAbort);
      },
      {[this](u64 n) {
         return quiet_run(FaultSite::kIcapAbort, quiet_run(FaultSite::kIcapCorrupt, n));
       },
       [this](u64 k) {
         pass(FaultSite::kIcapCorrupt, k);
         pass(FaultSite::kIcapAbort, k);
       }});
}

void FaultInjector::schedule_lock_loss(icap::Dcm& dcm, TimePs at) {
  sim_.schedule_at(at, [&dcm] { dcm.drop_lock(); });
}

}  // namespace uparc::fault
