// Chaos-soak harness: thousands of randomized reconfigurations under
// full-rate fault injection, with continuous invariant checking.
//
// Builds one txn::ControllerStack (txn/stack.hpp) with its chaos injector
// armed, drives `transactions` randomized health-routed loads, and after
// every transaction checks the system invariants the transactional layer
// guarantees:
//   * every transaction journal reaches a terminal state, and none of them
//     is kFailed (a failed transaction means the rollback ladder — retries,
//     last-good restore, safe blank — was exhausted);
//   * every region's config plane window readback-matches its journaled
//     state: committed/last-good image, or blank, or never touched;
//   * occupancy bookkeeping agrees with the terminal phase;
//   * quarantined regions never receive placements (health verdict recorded
//     at placement time), routed loads degrade to software fallback when
//     everything is quarantined;
//   * simulated time and rail energy accounting are monotone.
// Violations are collected, never thrown: the report (plus journal/metrics/
// trace JSON) is the CI artifact that explains a red soak.
#pragma once

#include "txn/transaction.hpp"

namespace uparc::txn {

struct SoakConfig {
  u64 seed = 1;
  unsigned transactions = 2000;
  unsigned regions = 4;
  unsigned modules = 6;
  /// Approximate module body size; rounded down to whole frames.
  std::size_t module_kb = 8;
  /// Scales every fault-site rate. 1.0 = the full-rate chaos plan; 0
  /// disables injection entirely (every transaction must then commit).
  double fault_scale = 1.0;
  bool trace = false;
  /// Attaches the bitstream cache to the controller. On by default so the
  /// soak chaos-tests cache coherence too: the harness additionally asserts
  /// that no rolled-back transaction leaves its image behind in the cache.
  bool cache = true;
};

struct SoakViolation {
  u64 txn = 0;  ///< transaction index (1-based; 0 = end-of-run check)
  std::string what;
};

struct SoakReport {
  unsigned transactions = 0;
  unsigned commits = 0;
  unsigned rollbacks_last_good = 0;
  unsigned rollbacks_blank = 0;
  unsigned failures = 0;
  unsigned software_fallbacks = 0;
  u64 quarantines = 0;
  u64 fault_fires = 0;
  u64 cache_hits = 0;
  u64 cache_poisoned_rejects = 0;
  double sim_ms = 0.0;
  double energy_uj = 0.0;
  std::vector<SoakViolation> violations;
  std::string journal_json;
  std::string metrics_json;
  std::string trace_json;  ///< "{}" unless SoakConfig::trace

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  /// Human-readable result block (CLI / bench output).
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] SoakReport run_soak(const SoakConfig& config);

}  // namespace uparc::txn
