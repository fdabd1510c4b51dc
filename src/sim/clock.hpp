// Gated, retunable clock domain.
//
// A Clock delivers rising-edge callbacks to subscribers while enabled.
// Frequency can be changed at run time (DyCloGen drives this through the DCM
// model); the new period takes effect from the next edge. Clocks are gated:
// a disabled clock schedules no events, so an idle system drains the event
// queue — this mirrors the EN gating in the paper's UReC.
//
// One kernel event delivers a burst of edges: after each edge the clock
// asks the kernel whether the next one may run inline (it lies strictly
// before every queued event and within the enclosing run's deadline and
// budget) and otherwise schedules it as an event. Handlers see one call
// per edge at that edge's time either way (see Simulation::can_inline).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace uparc::sim {

class Clock {
 public:
  using Handler = std::function<void()>;
  using SubscriptionId = std::size_t;

  Clock(Simulation& sim, std::string name, Frequency f);
  ~Clock();
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Frequency frequency() const noexcept { return freq_; }
  [[nodiscard]] TimePs period() const { return freq_.period(); }

  /// Retunes the clock; the new period applies from the next edge. A pending
  /// edge already scheduled under the old period still fires at its old time
  /// (matches DCM output behaviour where the current cycle completes).
  void set_frequency(Frequency f);

  /// Registers a rising-edge handler. Handlers run in subscription order.
  /// A handler may disable the clock or add subscribers mid-edge, but must
  /// not call unsubscribe() from inside a tick of the same clock.
  SubscriptionId on_rising(Handler h);
  void unsubscribe(SubscriptionId id);
  /// Currently registered rising-edge handlers (model-lint introspection).
  [[nodiscard]] std::size_t subscriber_count() const noexcept { return handlers_.size(); }

  /// Enables the clock; the first edge fires one period from now.
  void enable();
  /// Gates the clock off after the current event.
  void disable();
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Supply-side gate, orthogonal to enable(): the synthesizing DCM holds
  /// this low while unlocked. Edges are delivered only when the clock is
  /// both enabled (consumer EN) and supplied (DCM LOCKED), so a consumer
  /// asserting EN during a relock — or after a failed lock — stalls instead
  /// of silently running at a stale frequency.
  void set_supplied(bool supplied);
  [[nodiscard]] bool supplied() const noexcept { return supplied_; }
  [[nodiscard]] bool running() const noexcept { return enabled_ && supplied_; }

  /// Rising edges delivered since construction.
  [[nodiscard]] u64 cycle_count() const noexcept { return cycles_; }
  /// Total enabled time integrated across enable/disable windows, including
  /// the current window if the clock is still enabled. Used by power models.
  [[nodiscard]] TimePs active_time() const noexcept;

 private:
  void schedule_tick();
  void tick();
  void update_running();

  Simulation& sim_;
  std::string name_;
  Frequency freq_;
  bool enabled_ = false;
  bool supplied_ = true;
  bool running_ = false;
  bool tick_pending_ = false;
  u64 epoch_ = 0;  // bumped on disable so stale scheduled ticks cancel
  u64 cycles_ = 0;
  TimePs active_accum_{};
  TimePs enabled_since_{};
  std::vector<std::pair<SubscriptionId, Handler>> handlers_;
  SubscriptionId next_id_ = 1;
};

}  // namespace uparc::sim
