#include "manager/recovery.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace uparc::manager {

RecoveryManager::RecoveryManager(sim::Simulation& sim, std::string name, core::Uparc& uparc,
                                 power::Rail* rail, RecoveryPolicy policy)
    : Module(sim, std::move(name)), uparc_(uparc), rail_(rail), policy_(policy) {}

void RecoveryManager::run(const bits::PartialBitstream& bs,
                          std::function<void(const RecoveryOutcome&)> done) {
  run(bits::Image::build(bs), std::move(done));
}

void RecoveryManager::run(std::shared_ptr<const bits::Image> image,
                          std::function<void(const RecoveryOutcome&)> done) {
  if (busy_) throw std::logic_error("RecoveryManager: run while busy: " + name());
  busy_ = true;
  payload_ = std::move(image);
  done_ = std::move(done);
  outcome_ = RecoveryOutcome{};
  outcome_.start = sim_.now();
  attempt_ = 0;
  last_cause_ = ErrorCause::kNone;
  metrics().counter(name() + ".runs").add();
  if (obs::Tracer* tr = tracer()) {
    run_span_ = tr->begin("recovery.run", "recovery");
    tr->arg(run_span_, "payload_bytes", static_cast<double>(payload_->bitstream().body_bytes()));
  }

  Status st = uparc_.stage(*payload_);
  if (!st.ok()) {
    ctrl::ReconfigResult r;
    r.error = st.error().message;
    r.cause = st.error().cause;
    r.start = sim_.now();
    r.end = sim_.now();
    outcome_.history.push_back({1, r, RecoveryAction::kGiveUp, attempt_freq_});
    finish(r);
    return;
  }
  begin_attempt();
}

void RecoveryManager::begin_attempt() {
  ++attempt_;
  metrics().counter(name() + ".attempts").add();
  attempt_freq_ = uparc_.dyclogen().frequency(clocking::ClockId::kReconfig);
  if (obs::Tracer* tr = tracer()) {
    attempt_span_ = tr->begin("recovery.attempt", "recovery");
    tr->arg(attempt_span_, "attempt", static_cast<double>(attempt_));
    tr->arg(attempt_span_, "clk2_mhz", attempt_freq_.in_mhz());
  }
  arm_watchdog(attempt_budget());
  const unsigned token = attempt_;
  uparc_.reconfigure([this, token](const ctrl::ReconfigResult& r) {
    // A watchdog may have synthesized a failure for this attempt already
    // (e.g. the launch unwound after the synthetic result); drop the stale
    // hardware result in that case.
    if (!busy_ || token != attempt_) return;
    on_result(r);
  });
}

void RecoveryManager::restage_then_attempt() {
  Status st = uparc_.stage(*payload_);
  if (!st.ok()) {
    ctrl::ReconfigResult r;
    r.error = "recovery re-stage failed: " + st.error().message;
    r.cause = st.error().cause;
    r.start = sim_.now();
    r.end = sim_.now();
    outcome_.history.push_back(
        {static_cast<unsigned>(outcome_.history.size() + 1), r, RecoveryAction::kGiveUp,
         attempt_freq_});
    finish(r);
    return;
  }
  begin_attempt();
}

TimePs RecoveryManager::attempt_budget() const {
  // The watchdog is armed when the attempt is staged, so the budget covers
  // the preload copy (copy_loop_word manager cycles per word — an upper
  // bound: compressed containers copy fewer words) plus the stream (one
  // word per CLK_2 cycle) plus header margin, scaled by the slack factor.
  const double words = static_cast<double>(payload_->bitstream().body.size() + 256);
  const Frequency f = uparc_.dyclogen().frequency(clocking::ClockId::kReconfig);
  const manager::MicroBlaze& mb = uparc_.manager();
  const double us_per_word =
      f.period().us() + mb.frequency().period().us() * mb.costs().copy_loop_word;
  const TimePs expected = TimePs::from_us(us_per_word * words * policy_.watchdog_slack);
  // Staging may retune CLK_3 (compressed mode), so allow for relocks too.
  const TimePs budget = expected + 2 * uparc_.dyclogen().lock_time();
  return std::max(budget, policy_.watchdog_floor);
}

TimePs RecoveryManager::relock_budget() const {
  return std::max(policy_.watchdog_floor, 3 * uparc_.dyclogen().lock_time());
}

TimePs RecoveryManager::backoff_delay(ErrorCause cause, unsigned retry) const {
  if (policy_.backoff_base.ps() == 0 || retry == 0) return TimePs{};
  double us = policy_.backoff_base.us() * backoff_weight(cause);
  for (unsigned i = 1; i < retry; ++i) us *= policy_.backoff_factor;
  TimePs delay = TimePs::from_us(us);
  delay = std::min(delay, policy_.backoff_cap);
  // Cycle-budget aware: never wait longer than one attempt is allowed to
  // run — past that point waiting dominates the very budget that bounds a
  // retry, and total recovery latency stops being schedulable.
  return std::min(delay, attempt_budget());
}

void RecoveryManager::perform_after_backoff(RecoveryAction action, ErrorCause cause) {
  // retry index = number of failed results already recorded (1-based for
  // the first retry), so the schedule replays identically run after run.
  const unsigned retry = static_cast<unsigned>(outcome_.history.size());
  const TimePs delay = backoff_delay(cause, retry);
  if (delay.ps() == 0) {
    perform(action);
    return;
  }
  ++outcome_.backoffs;
  outcome_.backoff_total = outcome_.backoff_total + delay;
  metrics().counter(name() + ".backoffs").add();
  metrics().counter(name() + ".backoff_us").add(delay.us());
  obs::SpanId span = obs::kNoSpan;
  if (obs::Tracer* tr = tracer()) {
    span = tr->begin("recovery.backoff", "recovery");
    tr->arg(span, "retry", static_cast<double>(retry));
    tr->arg(span, "cause", to_string(cause));
    tr->arg(span, "delay_us", delay.us());
  }
  const unsigned token = ++backoff_token_;
  sim_.schedule_in(delay, [this, token, action, span] {
    if (obs::Tracer* tr = tracer()) tr->end(span);
    if (!busy_ || token != backoff_token_) return;
    perform(action);
  });
}

void RecoveryManager::arm_watchdog(TimePs budget) {
  const u64 epoch = ++watchdog_epoch_;
  sim_.schedule_in(budget, [this, epoch] {
    if (epoch != watchdog_epoch_ || !busy_) return;
    on_watchdog();
  });
}

void RecoveryManager::on_watchdog() {
  ++outcome_.watchdog_fires;
  metrics().counter(name() + ".watchdog_fires").add();
  if (obs::Tracer* tr = tracer()) tr->instant("recovery.watchdog", "recovery");
  if (uparc_.urec().busy()) {
    // Unwinds through Finish: the pending reconfigure callback delivers a
    // kTimeout result and classification proceeds normally.
    uparc_.urec().abort(ErrorCause::kTimeout, "recovery watchdog: cycle budget exhausted");
    return;
  }
  // Stalled outside UReC — typically a relock that never completed (lock
  // fault) or a supply-gated clock before the first edge.
  ctrl::ReconfigResult r;
  r.error = "recovery watchdog: operation stalled outside UReC";
  r.cause = uparc_.dyclogen().dcm(clocking::ClockId::kReconfig).locked()
                ? ErrorCause::kStalled
                : ErrorCause::kClockUnlocked;
  r.start = sim_.now();
  r.end = sim_.now();
  on_result(r);
}

RecoveryAction RecoveryManager::classify(const ctrl::ReconfigResult& r) const {
  if (r.success) return RecoveryAction::kNone;
  if (outcome_.history.size() + 1 >= policy_.max_attempts) return RecoveryAction::kGiveUp;
  if (!is_recoverable(r.cause)) return RecoveryAction::kGiveUp;
  switch (r.cause) {
    case ErrorCause::kClockUnlocked:
      return RecoveryAction::kRelock;
    case ErrorCause::kTimeout:
    case ErrorCause::kStalled:
      return uparc_.dyclogen().dcm(clocking::ClockId::kReconfig).locked()
                 ? RecoveryAction::kFrequencyStepDown
                 : RecoveryAction::kRelock;
    case ErrorCause::kDecompressor:
      return uparc_.codec() != policy_.fallback_codec ? RecoveryAction::kCodecFallback
                                                      : RecoveryAction::kRepreload;
    default:
      // Data-path flavored failures (CRC, ICAP protocol/abort, no DESYNC,
      // truncation, garbage): re-copy first; a second identical failure
      // suggests timing, so step the frequency down.
      return last_cause_ == r.cause ? RecoveryAction::kFrequencyStepDown
                                    : RecoveryAction::kRepreload;
  }
}

void RecoveryManager::on_result(const ctrl::ReconfigResult& r) {
  ++watchdog_epoch_;  // disarm
  // Invalidate any in-flight action completion (e.g. a relock that resolves
  // after its watchdog already synthesized a failure): letting it land later
  // would disarm the next attempt's watchdog and start an overlapping one.
  ++action_token_;
  if (outcome_.history.empty()) first_attempt_end_ = sim_.now();
  const RecoveryAction action = classify(r);
  outcome_.history.push_back({static_cast<unsigned>(outcome_.history.size() + 1), r, action,
                              attempt_freq_});
  if (action != RecoveryAction::kNone) {
    metrics().counter(name() + ".action." + to_string(action)).add();
  }
  if (!r.success) {
    metrics().counter(name() + ".cause." + to_string(r.cause)).add();
  }
  if (obs::Tracer* tr = tracer()) {
    tr->arg(attempt_span_, "success", r.success);
    if (!r.success) tr->arg(attempt_span_, "cause", to_string(r.cause));
    tr->arg(attempt_span_, "action", to_string(action));
    tr->end(attempt_span_);
  }
  last_cause_ = r.cause;
  if (action == RecoveryAction::kNone || action == RecoveryAction::kGiveUp) {
    finish(r);
    return;
  }
  perform_after_backoff(action, r.cause);
}

void RecoveryManager::perform(RecoveryAction action) {
  switch (action) {
    case RecoveryAction::kRepreload:
      restage_then_attempt();
      return;

    case RecoveryAction::kRelock: {
      // Re-program the DCM at the attempt frequency; the relock itself may
      // fail again, so run it under its own watchdog.
      arm_watchdog(relock_budget());
      const unsigned token = ++action_token_;
      uparc_.set_frequency(attempt_freq_, [this, token] {
        if (!busy_ || token != action_token_) return;
        ++watchdog_epoch_;
        begin_attempt();
      });
      return;
    }

    case RecoveryAction::kFrequencyStepDown: {
      const Frequency cur = uparc_.dyclogen().frequency(clocking::ClockId::kReconfig);
      const Frequency next = Frequency::mhz(
          std::max(policy_.min_frequency.in_mhz(), cur.in_mhz() * policy_.step_down_factor));
      arm_watchdog(relock_budget());
      const unsigned token = ++action_token_;
      uparc_.set_frequency(next, [this, token] {
        if (!busy_ || token != action_token_) return;
        ++watchdog_epoch_;
        restage_then_attempt();
      });
      return;
    }

    case RecoveryAction::kCodecFallback: {
      Status st = uparc_.set_codec(policy_.fallback_codec);
      if (!st.ok()) {
        ctrl::ReconfigResult r;
        r.error = "recovery codec fallback failed: " + st.error().message;
        r.cause = st.error().cause;
        r.start = sim_.now();
        r.end = sim_.now();
        finish(r);
        return;
      }
      restage_then_attempt();
      return;
    }

    case RecoveryAction::kNone:
    case RecoveryAction::kGiveUp:
      return;  // handled by on_result
  }
}

void RecoveryManager::finish(const ctrl::ReconfigResult& last) {
  ++watchdog_epoch_;
  ++action_token_;  // a late action completion must not leak into the next run
  outcome_.success = last.success;
  outcome_.final_result = last;
  outcome_.attempts = static_cast<unsigned>(outcome_.history.size());
  outcome_.end = sim_.now();
  if (rail_ != nullptr) {
    outcome_.energy_uj = rail_->energy_uj(outcome_.start, outcome_.end);
    outcome_.recovery_energy_uj =
        outcome_.history.size() > 1 ? rail_->energy_uj(first_attempt_end_, outcome_.end)
                                    : 0.0;
  }
  metrics().counter(name() + (outcome_.success ? ".successes" : ".giveups")).add();
  metrics().histogram(name() + ".attempts_per_run", {1, 2, 3, 4, 6, 8})
      .observe(static_cast<double>(outcome_.attempts));
  if (obs::Tracer* tr = tracer()) {
    tr->end(attempt_span_);  // staging-failure paths never saw on_result
    tr->arg(run_span_, "success", outcome_.success);
    tr->arg(run_span_, "attempts", static_cast<double>(outcome_.attempts));
    tr->arg(run_span_, "watchdog_fires", static_cast<double>(outcome_.watchdog_fires));
    if (outcome_.recovery_energy_uj > 0.0) {
      tr->arg(run_span_, "recovery_energy_uj", outcome_.recovery_energy_uj);
    }
    tr->end(run_span_);
  }
  busy_ = false;
  auto done = std::move(done_);
  done_ = nullptr;
  if (done) done(outcome_);
}

}  // namespace uparc::manager
