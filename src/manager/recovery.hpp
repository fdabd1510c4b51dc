// RecoveryManager — watchdogged, bounded-retry reconfiguration (Manager
// task, robustness extension).
//
// Wraps UPaRC's stage/reconfigure sequence with:
//   * a cycle-budget watchdog: each attempt gets a time budget derived from
//     the expected streaming cycles at the current CLK_2 frequency; when it
//     expires the watchdog aborts UReC (or synthesizes a failure when the
//     stall is outside UReC, e.g. a relock that never completes), so no
//     fault can hang the control path;
//   * failure classification via the ErrorCause taxonomy, mapped to bounded
//     recovery actions: re-preload (data-path corruption), DCM relock
//     (lost/failed lock), frequency step-down (repeated or timing-flavored
//     failures), codec fallback (decompressor errors);
//   * cost accounting: total and recovery-only energy through the power
//     rail, attempt history with per-attempt cause/action/frequency.
//
// The total number of results (first attempt + recoveries) is capped by
// RecoveryPolicy::max_attempts, so recovery always terminates.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/uparc.hpp"

namespace uparc::manager {

enum class RecoveryAction {
  kNone,              ///< success — nothing to recover
  kRepreload,         ///< re-copy the payload into the BRAM and retry
  kRelock,            ///< re-program the CLK_2 DCM and retry once locked
  kFrequencyStepDown, ///< retune CLK_2 lower, re-preload, retry
  kCodecFallback,     ///< switch to the fallback codec, re-stage, retry
  kGiveUp,            ///< unrecoverable cause or attempt budget exhausted
};

[[nodiscard]] constexpr const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kNone: return "none";
    case RecoveryAction::kRepreload: return "repreload";
    case RecoveryAction::kRelock: return "relock";
    case RecoveryAction::kFrequencyStepDown: return "step_down";
    case RecoveryAction::kCodecFallback: return "codec_fallback";
    case RecoveryAction::kGiveUp: return "give_up";
  }
  return "unknown";
}

struct RecoveryPolicy {
  /// Maximum results tolerated (first attempt included) before giving up.
  unsigned max_attempts = 4;
  /// Watchdog budget = slack x expected streaming time at the current CLK_2
  /// frequency (one word per cycle), floored below.
  double watchdog_slack = 4.0;
  TimePs watchdog_floor = TimePs::from_us(200);
  /// CLK_2 multiplier applied by kFrequencyStepDown, floored at min_frequency.
  double step_down_factor = 0.5;
  Frequency min_frequency = Frequency::mhz(50);
  /// Codec installed by kCodecFallback (simple, streaming-capable decoder).
  compress::CodecId fallback_codec = compress::CodecId::kRle;
  /// Deterministic backoff inserted before each recovery action: the n-th
  /// retry waits cause_weight x backoff_base x backoff_factor^(n-1), capped
  /// at backoff_cap and at the attempt's own cycle budget (a wait longer
  /// than the watchdog budget would be indistinguishable from a hang).
  /// Zero base disables backoff entirely (PR-1 behaviour).
  TimePs backoff_base = TimePs::from_us(20);
  double backoff_factor = 2.0;
  TimePs backoff_cap = TimePs::from_us(2000);
};

/// Cause-class weight for the retry backoff: clock faults need the DCM's
/// analog loop to settle (longest), stalls suggest contention worth real
/// spacing, data-path corruption is transient and retries cheaply.
[[nodiscard]] constexpr double backoff_weight(ErrorCause cause) {
  switch (cause) {
    case ErrorCause::kClockUnlocked: return 2.0;
    case ErrorCause::kTimeout:
    case ErrorCause::kStalled: return 1.5;
    default: return 1.0;
  }
}

struct AttemptRecord {
  unsigned attempt = 0;          ///< 1-based
  ctrl::ReconfigResult result;
  RecoveryAction action = RecoveryAction::kNone;  ///< taken *after* this result
  Frequency frequency;           ///< CLK_2 frequency during the attempt
};

struct RecoveryOutcome {
  bool success = false;
  unsigned attempts = 0;
  u64 watchdog_fires = 0;
  u64 backoffs = 0;                 ///< retries that waited before acting
  TimePs backoff_total{};           ///< summed deterministic retry delay
  std::vector<AttemptRecord> history;
  ctrl::ReconfigResult final_result;
  TimePs start{};
  TimePs end{};
  double energy_uj = 0.0;           ///< whole sequence (rail present)
  double recovery_energy_uj = 0.0;  ///< spent after the first attempt ended
};

class RecoveryManager : public sim::Module {
 public:
  /// `rail` may be null (no energy accounting).
  RecoveryManager(sim::Simulation& sim, std::string name, core::Uparc& uparc,
                  power::Rail* rail = nullptr, RecoveryPolicy policy = {});

  /// Stages `image` and reconfigures under the watchdog with bounded
  /// retries; every restage reuses the image's memoized lint verdict and
  /// cache keys. `done` receives the outcome when the sequence ends
  /// (success or give-up). Throws if a sequence is already in flight.
  void run(std::shared_ptr<const bits::Image> image,
           std::function<void(const RecoveryOutcome&)> done);
  /// run() of an Image built from `bs` now.
  void run(const bits::PartialBitstream& bs,
           std::function<void(const RecoveryOutcome&)> done);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] const RecoveryPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] RecoveryPolicy& policy() noexcept { return policy_; }

 private:
  void begin_attempt();
  void restage_then_attempt();
  void arm_watchdog(TimePs budget);
  void on_watchdog();
  void on_result(const ctrl::ReconfigResult& r);
  void perform(RecoveryAction action);
  void finish(const ctrl::ReconfigResult& last);
  [[nodiscard]] RecoveryAction classify(const ctrl::ReconfigResult& r) const;
  [[nodiscard]] TimePs attempt_budget() const;
  [[nodiscard]] TimePs relock_budget() const;
  [[nodiscard]] TimePs backoff_delay(ErrorCause cause, unsigned retry) const;
  void perform_after_backoff(RecoveryAction action, ErrorCause cause);

  core::Uparc& uparc_;
  power::Rail* rail_;
  RecoveryPolicy policy_;

  std::shared_ptr<const bits::Image> payload_;
  std::function<void(const RecoveryOutcome&)> done_;
  RecoveryOutcome outcome_;
  Frequency attempt_freq_;
  TimePs first_attempt_end_{};
  ErrorCause last_cause_ = ErrorCause::kNone;
  unsigned attempt_ = 0;
  unsigned action_token_ = 0;
  unsigned backoff_token_ = 0;
  u64 watchdog_epoch_ = 0;
  bool busy_ = false;
  std::size_t run_span_ = static_cast<std::size_t>(-1);
  std::size_t attempt_span_ = static_cast<std::size_t>(-1);
};

}  // namespace uparc::manager
