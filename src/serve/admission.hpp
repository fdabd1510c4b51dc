// Admission control: per-tenant token buckets plus a deadline-feasibility
// check, so requests that cannot possibly meet their deadline are rejected
// at the door (fail fast) instead of rotting in queue and being shed later.
//
// The feasibility check compares the request's absolute deadline against
//   now + backlog_ahead / devices + estimated_cost
// where backlog_ahead is the estimated cost of every queued request that
// would be dispatched before this one (same or higher class; earlier
// deadline within the class) and estimated_cost is the cache-aware load
// estimate from RegionManager::estimate_load_cost. Every admission runs the
// check.
#pragma once

#include <vector>

#include "obs/metrics.hpp"
#include "serve/workload.hpp"

namespace uparc::serve {

/// Deterministic token bucket over simulated time.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst) {}

  /// Takes one token if available at simulated time `now`.
  [[nodiscard]] bool try_take(TimePs now);
  [[nodiscard]] double tokens(TimePs now) const;

 private:
  void refill(TimePs now);

  double rate_;
  double burst_;
  double tokens_;
  TimePs last_{};
};

enum class AdmitVerdict : u8 {
  kAdmit,
  kRejectBucket,      ///< tenant over its token-bucket rate
  kRejectInfeasible,  ///< cannot meet the deadline given current backlog
};

[[nodiscard]] constexpr const char* to_string(AdmitVerdict v) {
  switch (v) {
    case AdmitVerdict::kAdmit: return "admit";
    case AdmitVerdict::kRejectBucket: return "reject_bucket";
    case AdmitVerdict::kRejectInfeasible: return "reject_infeasible";
  }
  return "unknown";
}

class AdmissionController {
 public:
  AdmissionController(const std::vector<TenantSpec>& tenants, obs::Registry& metrics);

  /// Decides `r` at `now`. `backlog_ahead` is the total estimated cost of
  /// queued work that would dispatch before `r`; `devices` the number of
  /// dispatchable devices; `est_cost` the request's own estimated cost.
  [[nodiscard]] AdmitVerdict admit(const Request& r, TimePs now, TimePs backlog_ahead,
                                   unsigned devices, TimePs est_cost);

 private:
  std::vector<TokenBucket> buckets_;
  obs::Registry& metrics_;
};

}  // namespace uparc::serve
