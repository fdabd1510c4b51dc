// Overload chaos soak for the serving front end: drives a multi-tenant
// workload at a multiple of the fleet's rated capacity with fault
// injection on (each device a txn::ControllerStack, the restart drill
// cold-starting one through ControllerStack::recover_from), then asserts
// the per-request invariants over the record table:
//   * every issued request terminates exactly once, as one of
//     completed / rejected / shed / timed-out;
//   * shedding is strictly lowest-class-first — no guaranteed-class
//     request is shed while lower classes still hold admitted requests
//     (checked at shed time by the front end, re-checked here);
//   * a completed request's deadline accounting is consistent:
//     deadline_miss <=> finished after the absolute deadline;
//   * event time is monotone.
// Violations are collected, never thrown: the report (plus metrics JSON)
// is the CI artifact that explains a red soak.
#pragma once

#include <array>

#include "serve/frontend.hpp"

namespace uparc::serve {

/// Per-class deadline budgets as multiples of the calibrated warm cost.
inline constexpr double kGuaranteedDeadlineX = 40.0;
inline constexpr double kStandardDeadlineX = 25.0;
inline constexpr double kBestEffortDeadlineX = 15.0;

struct ServeSoakConfig {
  u64 seed = 1;
  u64 requests = 2000;
  unsigned devices = 2;
  unsigned regions_per_device = 2;
  unsigned modules = 4;
  /// Offered load as a multiple of the calibrated rated capacity.
  double load_factor = 2.0;
  /// Fault-injection scale (0 = clean run).
  double fault_scale = 1.0;
  /// Arrival mix: guaranteed closed-loop + standard open + best-effort
  /// bursty unless overridden ("open", "closed", "bursty" force one mode).
  std::string dist = "mixed";
  std::size_t queue_capacity = 64;
  /// Telemetry sampling interval; 0 = telemetry (and SLO alerting) off.
  TimePs telemetry_interval{};
  std::size_t telemetry_capacity = 4096;
  /// SLO objective lines (obs::parse_objective grammar). Empty while
  /// telemetry is on = the default fleet objectives (guaranteed p99 vs its
  /// deadline, goodput ratio, best-effort shed ratio).
  std::vector<std::string> slo_lines;
  /// Controller-restart drill (FrontEndConfig::restart_after_loads):
  /// after this many loads a device is cold-restarted once, its state
  /// rebuilt from its WAL. 0 = off.
  u64 restart_after_loads = 0;
  /// Fleet executor threads (FrontEndConfig::workers); 0 = epochs run
  /// inline on the coordinating thread. For any N, 0 included, the
  /// artifacts are byte-identical — only wall-clock changes with N.
  unsigned workers = 0;
};

struct ServeSoakViolation {
  u64 request = 0;  ///< request id (0-based; ~0 = run-level check)
  std::string what;
};

struct ServeSoakReport {
  u64 issued = 0;
  std::array<u64, kQosClassCount> completed{};
  std::array<u64, kQosClassCount> rejected{};
  std::array<u64, kQosClassCount> shed{};
  std::array<u64, kQosClassCount> timed_out{};
  std::array<u64, kQosClassCount> deadline_miss{};
  u64 software_fallbacks = 0;
  u64 retries = 0;
  u64 breaker_opens = 0;
  u64 fault_fires = 0;
  u64 restarts = 0;  ///< controller restarts performed by the drill
  double rated_rps = 0.0;
  double offered_rps = 0.0;
  double sim_ms = 0.0;
  u64 alerts_fired = 0;
  u64 alerts_resolved = 0;
  std::vector<ServeSoakViolation> violations;
  std::string metrics_json;
  std::string health_json;
  /// Telemetry exports (empty when telemetry_interval is 0).
  std::string telemetry_json;
  std::string telemetry_csv;
  std::string alerts_json;
  /// Flight-recorder dump: the frozen post-mortem when a trigger fired
  /// (breaker open, failed txn, invariant violation), else the end-of-run
  /// ring state. Never empty.
  std::string flight_json;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Builds the tenant mix for `config` against a calibrated rated capacity.
/// Throws std::invalid_argument unless `config.dist` is one of mixed, open,
/// closed or bursty.
[[nodiscard]] std::vector<TenantSpec> make_tenants(const ServeSoakConfig& config,
                                                   double rated_rps, TimePs warm_cost);

/// The default fleet SLO set used when `config.slo_lines` is empty:
/// guaranteed-class fleet p99 against its deadline budget, overall goodput
/// ratio, best-effort shed ratio. Thresholds scale with the calibrated
/// warm cost so a clean 1x run stays alert-free while 2x overload fires.
[[nodiscard]] std::vector<std::string> default_slo_lines(TimePs warm_cost);

[[nodiscard]] ServeSoakReport run_soak(const ServeSoakConfig& config);

}  // namespace uparc::serve
