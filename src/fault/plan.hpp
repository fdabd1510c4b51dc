// Deterministic fault plan (what goes wrong, where, and when).
//
// A FaultPlan names the injection sites along the reconfiguration path and
// gives each a firing schedule. Every site draws from its own PRNG stream
// derived from the plan's master seed, so replaying a plan produces a
// bit-identical fault sequence no matter how the sites interleave at run
// time — the property the deterministic-replay tests assert.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace uparc::fault {

/// Injection sites along the reconfiguration path, outermost first.
enum class FaultSite : std::size_t {
  kPreloadTruncate = 0,  ///< torn preload: only a prefix of the payload lands
  kBramRead,             ///< BRAM port-B read-path bit flip (UReC side)
  kDecompInput,          ///< bit flip on the compressed stream into the decoder
  kDcmLockFail,          ///< DCM relock elapses without achieving LOCKED
  kIcapCorrupt,          ///< bit flip on the word entering the ICAP
  kIcapAbort,            ///< ICAP driven into its error state mid-stream
  kCount
};

[[nodiscard]] constexpr const char* to_string(FaultSite s) {
  switch (s) {
    case FaultSite::kPreloadTruncate: return "preload_truncate";
    case FaultSite::kBramRead: return "bram_read";
    case FaultSite::kDecompInput: return "decomp_input";
    case FaultSite::kDcmLockFail: return "dcm_lock_fail";
    case FaultSite::kIcapCorrupt: return "icap_corrupt";
    case FaultSite::kIcapAbort: return "icap_abort";
    case FaultSite::kCount: break;
  }
  return "unknown";
}

inline constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kCount);

/// Per-site firing schedule. An "opportunity" is one consultation of the
/// site's hook: one word read, one sector, one relock, one preload, one
/// ICAP write. A fire opens a burst: the first hit plus `burst - 1` forced
/// hits on the immediately following opportunities. `max_fires` caps fire
/// decisions (bursts), not individual hits.
struct SiteConfig {
  double rate = 0.0;        ///< fire probability per opportunity (1.0 = always)
  u64 after = 0;            ///< skip this many opportunities before arming
  u64 burst = 1;            ///< consecutive opportunities hit per fire
  u64 max_fires = ~u64{0};  ///< cap on fires (bursts)
  /// Site-specific knob: kPreloadTruncate = fraction of the payload kept
  /// (0 -> 0.5).
  double param = 0.0;

  [[nodiscard]] bool armed() const noexcept { return rate > 0.0; }
};

/// A master seed plus one SiteConfig per site. Unarmed sites (rate 0) cost
/// nothing at run time.
struct FaultPlan {
  u64 seed = 1;
  std::array<SiteConfig, kFaultSiteCount> sites{};

  [[nodiscard]] SiteConfig& at(FaultSite s) {
    return sites[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const SiteConfig& at(FaultSite s) const {
    return sites[static_cast<std::size_t>(s)];
  }
  /// Fluent site setup: plan.arm(FaultSite::kBramRead, {.rate = 1e-3}).
  FaultPlan& arm(FaultSite s, SiteConfig cfg) {
    at(s) = cfg;
    return *this;
  }
};

}  // namespace uparc::fault
