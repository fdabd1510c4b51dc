// SLO engine: declarative objectives over telemetry time series with
// multi-window burn-rate alerting.
//
// Objectives come in three shapes, written in a small grammar:
//
//   latency  "<name>: hist(<series>) p<P> <= <threshold>"
//            The windowed latency distribution (histogram bucket deltas
//            over the window) must keep its P-th percentile under the
//            threshold. Bad events = request mass above the threshold;
//            error budget = 1 - P/100 (p99 tolerates 1% over).
//
//   ratio    "<name>: ratio(<numerator>, <denominator>) >= <target>"
//            "<name>: ratio(<numerator>, <denominator>) <= <limit>"
//            Two counter series; the windowed delta ratio must stay on the
//            right side. Budget = 1 - target (>=) or limit (<=).
//
//   value    "<name>: value(<series>) <= <limit>"  (or >=)
//            An instantaneous series (gauge); bad ticks are ticks where
//            the comparison fails. Budget = SloPolicy::value_budget.
//
// Burn rate = (observed bad fraction over a window) / budget — 1.0 means
// the objective is burning budget exactly as fast as allowed. SRE-style
// multi-window alerting: an alert FIRES when both the fast window (~1% of
// the horizon) and the slow window (~10%) burn above `fire_burn`, and
// RESOLVES when both fall below `resolve_burn` (< fire_burn: hysteresis,
// so a metric oscillating at the threshold cannot flap the alert). The
// alert log is deterministic and seed-stable; serve::run_soak and the CI
// SLO gates consume it.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/telemetry.hpp"

namespace uparc::obs {

enum class SloKind : u8 { kLatency, kRatio, kValue };
enum class SloCmp : u8 { kLe, kGe };

[[nodiscard]] constexpr const char* to_string(SloKind k) {
  switch (k) {
    case SloKind::kLatency: return "latency";
    case SloKind::kRatio: return "ratio";
    case SloKind::kValue: return "value";
  }
  return "unknown";
}

struct SloObjective {
  std::string name;
  SloKind kind = SloKind::kValue;
  std::string series;       ///< histogram base / value series / ratio numerator
  std::string denominator;  ///< ratio only
  double percentile = 99.0; ///< latency only
  SloCmp cmp = SloCmp::kLe;
  double threshold = 0.0;
  /// Allowed bad fraction. 0 = derive: latency 1 - P/100, ratio 1 - target
  /// (>=) or the limit itself (<=), value SloPolicy::value_budget.
  double budget = 0.0;

  /// Renders back into the grammar (docs, alert log, tests).
  [[nodiscard]] std::string spec() const;
};

/// Parses one objective line; returns a descriptive error on bad syntax.
[[nodiscard]] Result<SloObjective> parse_objective(const std::string& line);

struct SloPolicy {
  TimePs fast_window = TimePs::from_ms(2);
  TimePs slow_window = TimePs::from_ms(20);
  /// Burn-rate thresholds. Fire needs both windows above `fire_burn`;
  /// resolve needs both below `resolve_burn` (hysteresis gap).
  double fire_burn = 1.0;
  double resolve_burn = 0.5;
  /// Windows with fewer qualifying events than this never fire (guards
  /// against 1-request windows reading as 100% bad). Latency/ratio only.
  double min_events = 8.0;
  /// Bad-tick budget for value objectives.
  double value_budget = 0.5;
};

struct AlertEvent {
  TimePs t{};
  std::string objective;
  bool firing = false;  ///< true = fired, false = resolved
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  double value = 0.0;  ///< evaluated metric at the transition
};

/// Point-in-time evaluation of one objective (also exposed for tests).
struct SloEvaluation {
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  double value = 0.0;     ///< windowed metric (fast window)
  bool has_data = false;  ///< false when no qualifying events exist yet
};

class SloEngine {
 public:
  explicit SloEngine(SloPolicy policy = {});

  void add_objective(SloObjective objective);
  [[nodiscard]] const std::vector<SloObjective>& objectives() const noexcept {
    return objectives_;
  }
  [[nodiscard]] const SloPolicy& policy() const noexcept { return policy_; }

  /// Evaluates every objective against the sampler at tick time `t` and
  /// appends firing/resolved transitions to the alert log. Call once per
  /// telemetry tick, in time order.
  void evaluate(TimePs t, const TelemetrySampler& telemetry);

  /// Evaluates one objective at `t` without touching alert state.
  [[nodiscard]] SloEvaluation evaluate_one(const SloObjective& objective, TimePs t,
                                           const TelemetrySampler& telemetry) const;

  [[nodiscard]] const std::vector<AlertEvent>& alerts() const noexcept { return alerts_; }
  [[nodiscard]] u64 fired() const noexcept { return fired_; }
  [[nodiscard]] u64 resolved() const noexcept { return resolved_; }
  /// Completed firing -> resolved transitions.
  [[nodiscard]] u64 transitions() const noexcept { return resolved_; }
  [[nodiscard]] bool any_firing() const;
  /// True while `name` is in the firing state.
  [[nodiscard]] bool is_firing(const std::string& name) const;

  /// {"policy":{...},"objectives":[...],"alerts":[...]} — deterministic.
  [[nodiscard]] std::string render_json() const;

 private:
  struct State {
    bool firing = false;
  };

  [[nodiscard]] double window_burn(const SloObjective& o, TimePs t, TimePs window,
                                   const TelemetrySampler& telemetry, double* value_out,
                                   double* events_out) const;

  SloPolicy policy_;
  std::vector<SloObjective> objectives_;
  std::vector<State> states_;
  std::vector<AlertEvent> alerts_;
  u64 fired_ = 0;
  u64 resolved_ = 0;
};

}  // namespace uparc::obs
