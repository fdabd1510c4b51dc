#include "sim/kernel.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#if UPARC_THREAD_GUARD
#include <cstdio>
#include <cstdlib>
#endif

namespace uparc::sim {

#if UPARC_THREAD_GUARD
void Simulation::check_owner_thread() {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (owner_thread_.compare_exchange_strong(expected, self, std::memory_order_relaxed)) {
    return;  // first touch: this thread owns the kernel now
  }
  if (expected != self) {
    std::fprintf(stderr,
                 "uparc: Simulation touched from a second thread. A Simulation is a "
                 "single-owner event shard; give each worker thread its own kernel "
                 "and communicate through declared cross-shard channels "
                 "(see analysis/isolation_lint.hpp), or move the shard with the "
                 "release_ownership()/adopt_ownership() handoff protocol.\n");
    std::abort();
  }
}
#endif

void Simulation::release_ownership() {
#if UPARC_THREAD_GUARD
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id owner = owner_thread_.load(std::memory_order_relaxed);
  if (owner != std::thread::id{} && owner != self) {
    std::fprintf(stderr,
                 "uparc: release_ownership() from a thread that does not own the "
                 "shard. Only the current owner may renounce the latch.\n");
    std::abort();
  }
  owner_thread_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  topology_.note_handoff_release();
}

void Simulation::adopt_ownership() {
#if UPARC_THREAD_GUARD
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (!owner_thread_.compare_exchange_strong(expected, self, std::memory_order_relaxed) &&
      expected != self) {
    std::fprintf(stderr,
                 "uparc: adopt_ownership() while another thread still holds the "
                 "shard. The previous owner must release_ownership() first.\n");
    std::abort();
  }
#endif
  topology_.note_handoff_adopt();
}

void Simulation::schedule_at(TimePs t, Action action) {
  check_owner_thread();
  if (t < now_) throw std::logic_error("Simulation::schedule_at in the past");
  queue_.push(Event{t, seq_++, std::move(action)});
}

bool Simulation::step() {
  check_owner_thread();
  if (queue_.empty()) return false;
  dispatch(now_, 0);
  return true;
}

u64 Simulation::dispatch(TimePs horizon, u64 room) {
  check_owner_thread();
  Event ev = queue_.pop();  // moved out of the heap, no const_cast needed
  now_ = ev.time;
  ++executed_;
  horizon_ = horizon;
  inline_room_ = inline_edges_ ? room : 0;
  const u64 inlined_before = inlined_;
  ev.action();
  inline_room_ = 0;
  return 1 + (inlined_ - inlined_before);
}

void Simulation::budget_exceeded(const char* which, u64 max_events) const {
  throw std::runtime_error(std::string("Simulation::") + which +
                           " exceeded event budget (" + std::to_string(max_events) +
                           ") at t=" + std::to_string(now_.ps()) + " ps with " +
                           std::to_string(queue_.size()) + " events pending");
}

namespace {

/// Edges one event may inline once `executed` of `max_events` are spent:
/// the event itself takes one of the remaining slots.
u64 inline_room(u64 executed, u64 max_events) {
  return max_events > executed + 1 ? max_events - executed - 1 : 0;
}

}  // namespace

void Simulation::run(u64 max_events) {
  u64 executed = 0;
  while (!queue_.empty()) {
    executed += dispatch(TimePs(~u64{0}), inline_room(executed, max_events));
    // Over budget only when more work remains: a run that needs exactly
    // max_events events and then drains is legitimate, not runaway.
    if (executed >= max_events && !queue_.empty()) {
      budget_exceeded("run", max_events);
    }
  }
}

void Simulation::run_until(TimePs deadline, u64 max_events) {
  u64 executed = 0;
  while (!queue_.empty() && queue_.top().time <= deadline) {
    executed += dispatch(deadline, inline_room(executed, max_events));
    if (executed >= max_events && !queue_.empty() && queue_.top().time <= deadline) {
      budget_exceeded("run_until", max_events);
    }
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace uparc::sim
