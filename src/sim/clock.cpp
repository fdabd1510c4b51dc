#include "sim/clock.hpp"

#include <algorithm>

namespace uparc::sim {

Clock::Clock(Simulation& sim, std::string name, Frequency f)
    : sim_(sim), name_(std::move(name)), freq_(f) {
  sim_.topology().add_clock(this);
}

Clock::~Clock() { sim_.topology().remove_clock(this); }

void Clock::set_frequency(Frequency f) { freq_ = f; }

void Clock::on_rising(Handler h) { handlers_.push_back(std::move(h)); }

void Clock::enable() {
  if (enabled_) return;
  enabled_ = true;
  update_running();
}

void Clock::disable() {
  if (!enabled_) return;
  enabled_ = false;
  update_running();
}

void Clock::set_supplied(bool supplied) {
  if (supplied_ == supplied) return;
  supplied_ = supplied;
  update_running();
}

void Clock::update_running() {
  const bool run = enabled_ && supplied_;
  if (run == running_) return;
  running_ = run;
  if (run) {
    enabled_since_ = sim_.now();
    schedule_tick();
  } else {
    active_accum_ += sim_.now() - enabled_since_;
    ++epoch_;  // invalidate any scheduled tick
    tick_pending_ = false;
  }
}

TimePs Clock::active_time() const noexcept {
  TimePs t = active_accum_;
  if (running_) t += sim_.now() - enabled_since_;
  return t;
}

void Clock::schedule_tick() {
  if (!running_ || tick_pending_) return;
  tick_pending_ = true;
  const u64 epoch = epoch_;
  sim_.schedule_in(period(), [this, epoch] {
    if (epoch != epoch_) return;  // clock was gated off meanwhile
    tick_pending_ = false;
    tick();
  });
}

u64 Clock::take_edges(u64 n) {
  // A second subscriber would miss the claimed edges. Outside its own tick
  // a running clock always has its next edge pending, so the pending check
  // also confines bursts to this clock's handlers.
  if (handlers_.size() != 1 || !running_ || tick_pending_) return 0;
  const TimePs p = period();
  const u64 got = sim_.inline_edges(sim_.now() + p, p, n);
  if (got != 0) {
    sim_.advance_burst(sim_.now() + p * got, got);
    cycles_ += got;
  }
  return got;
}

void Clock::tick() {
  for (;;) {
    ++cycles_;
    // Index-based iteration so handlers may subscribe or disable the clock
    // mid-edge without invalidating the loop.
    for (std::size_t i = 0; i < handlers_.size(); ++i) {
      if (!running_) break;
      handlers_[i]();
    }
    // Deliver the next edge in this same event when nothing else can run
    // before it; the kernel re-checks the queue, so events the handlers
    // just scheduled are honoured. A tick already pending (the clock was
    // gated off and on again mid-edge) keeps its own event.
    if (!running_ || tick_pending_) break;
    const TimePs next = sim_.now() + period();
    if (!sim_.can_inline(next)) break;
    sim_.advance_inline(next);
  }
  schedule_tick();
}

}  // namespace uparc::sim
