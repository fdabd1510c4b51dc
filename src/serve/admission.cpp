#include "serve/admission.hpp"

#include <algorithm>

namespace uparc::serve {

void TokenBucket::refill(TimePs now) {
  if (now <= last_) return;
  const double dt_sec = static_cast<double>((now - last_).ps()) * 1e-12;
  tokens_ = std::min(burst_, tokens_ + rate_ * dt_sec);
  last_ = now;
}

bool TokenBucket::try_take(TimePs now) {
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::tokens(TimePs now) const {
  if (now <= last_) return tokens_;
  const double dt_sec = static_cast<double>((now - last_).ps()) * 1e-12;
  return std::min(burst_, tokens_ + rate_ * dt_sec);
}

AdmissionController::AdmissionController(const std::vector<TenantSpec>& tenants,
                                         obs::Registry& metrics)
    : metrics_(metrics) {
  buckets_.reserve(tenants.size());
  for (const TenantSpec& t : tenants) {
    buckets_.emplace_back(t.bucket_rate_rps, t.bucket_burst);
  }
}

AdmitVerdict AdmissionController::admit(const Request& r, TimePs now, TimePs backlog_ahead,
                                        unsigned devices, TimePs est_cost) {
  if (r.tenant >= buckets_.size()) return AdmitVerdict::kRejectBucket;
  if (!buckets_[r.tenant].try_take(now)) {
    metrics_.counter("serve.reject.bucket").add();
    return AdmitVerdict::kRejectBucket;
  }
  const u64 dev = std::max(devices, 1u);
  const double wait_ps = static_cast<double>(backlog_ahead.ps()) / static_cast<double>(dev) +
                         static_cast<double>(est_cost.ps());
  const TimePs finish = now + TimePs(static_cast<u64>(wait_ps));
  if (finish > r.deadline) {
    metrics_.counter("serve.reject.infeasible").add();
    return AdmitVerdict::kRejectInfeasible;
  }
  return AdmitVerdict::kAdmit;
}

}  // namespace uparc::serve
