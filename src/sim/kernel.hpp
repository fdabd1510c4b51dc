// Discrete-event simulation kernel.
//
// The kernel is a time-ordered queue of closures with picosecond resolution.
// Events scheduled for the same timestamp run in scheduling order (stable
// FIFO), which gives deterministic multi-clock-domain interleaving.
//
// Hardware models built on top (clocks, BRAM, ICAP, controllers) are
// cycle-accurate: they subscribe to clock rising edges and advance one
// FSM step per edge. Clocks only tick while enabled, mirroring the paper's
// EN gating ("the EN signal deactivates the BRAM and ICAP access to save
// power") and letting `run()` terminate when the system goes idle.
//
// Inline edges: inside run() and run_until(), a clock may deliver its next
// rising edge within the event that delivered the previous one instead of
// scheduling a new event, as long as that edge lies strictly before every
// queued event and within the call's deadline and event budget (see
// can_inline). Handlers still run once per edge at that edge's picosecond,
// so the order of everything observable is the same as with one event per
// edge; set_inline_edges(false) restores one event per edge as the
// reference path. events_executed() counts kernel events only;
// events_executed() + inlined_edges() equals the event count of the
// reference path. step() never inlines.
//
// Bursts: a clock's only subscriber may take a run of the following edges
// in one call (Clock::take_edges) when its work for them does not depend on
// time and nothing else can observe them one by one. inline_edges() counts
// the edges can_inline would allow one after another; they are inlined
// edges, so the sum above still holds, and burst_edges() counts them too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#if UPARC_THREAD_GUARD
#include <atomic>
#include <thread>
#endif

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/topology.hpp"

namespace uparc::obs {
class Tracer;
}  // namespace uparc::obs

namespace uparc::sim {

/// One scheduled closure. `seq` breaks same-time ties in scheduling order.
struct Event {
  TimePs time;
  u64 seq;
  std::function<void()> action;
};

/// Explicit binary min-heap of Events ordered on (time, seq), owned by the
/// kernel. Replaces std::priority_queue so that (a) pop() can move the
/// action out without the const_cast dance priority_queue::top() forces,
/// and (b) the backing vector can be pre-sized per shard before a parallel
/// run starts (ParallelExecutor sizes each shard's heap once instead of
/// letting every worker grow it under load).
class EventHeap {
 public:
  void reserve(std::size_t n) { heap_.reserve(n); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// Earliest (time, seq) event. Undefined on an empty heap.
  [[nodiscard]] const Event& top() const noexcept { return heap_.front(); }

  void push(Event e) {
    heap_.push_back(std::move(e));
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the earliest event (moved out, no copy).
  Event pop() {
    Event out = std::move(heap_.front());
    if (heap_.size() > 1) {
      heap_.front() = std::move(heap_.back());
      heap_.pop_back();
      sift_down(0);
    } else {
      heap_.pop_back();
    }
    return out;
  }

 private:
  [[nodiscard]] static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!earlier(heap_[i], heap_[parent])) return;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && earlier(heap_[l], heap_[best])) best = l;
      if (r < n && earlier(heap_[r], heap_[best])) best = r;
      if (best == i) return;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<Event> heap_;
};

/// Central event scheduler. Not thread-safe by design: one Simulation is
/// one event shard, owned by exactly one thread for its whole life — or,
/// since the parallel executor, for one *ownership span*: the owner may
/// renounce the shard with release_ownership() so a worker thread can
/// adopt_ownership() it (and hand it back the same way). Guard builds
/// (UPARC_THREAD_GUARD, auto-on under sanitizers and Debug) latch the
/// owning thread and abort with a diagnostic if any other thread touches
/// the kernel — the single cheapest way to catch shards shared by
/// accident. Handoffs are counted in the topology so iso.shard.handoff
/// can audit that every release found its adopt.
class Simulation {
 public:
  using Action = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePs now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `t` (must be >= now()).
  void schedule_at(TimePs t, Action action);
  /// Schedules `action` `dt` after the current time.
  void schedule_in(TimePs dt, Action action) { schedule_at(now_ + dt, std::move(action)); }

  /// Runs a single event; returns false when the queue is empty. Never
  /// inlines: a clock edge event delivers exactly one edge.
  bool step();
  /// Runs until the queue drains. Throws if the event budget is exceeded
  /// (guards against accidentally free-running clocks). Inlined edges count
  /// against the budget like events. A run that needs exactly `max_events`
  /// events and then drains is within budget.
  void run(u64 max_events = kDefaultEventBudget);
  /// Runs until simulated time reaches `deadline` or the queue drains. No
  /// event or inlined edge runs past `deadline`.
  void run_until(TimePs deadline, u64 max_events = kDefaultEventBudget);

  /// Kernel events run (inlined edges excluded).
  [[nodiscard]] u64 events_executed() const noexcept { return executed_; }
  /// Clock edges delivered inside an already running event.
  [[nodiscard]] u64 inlined_edges() const noexcept { return inlined_; }
  /// Inlined edges a clock's only subscriber took in bursts.
  [[nodiscard]] u64 burst_edges() const noexcept { return burst_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Turns edge inlining on (the default) or off. Off is the reference
  /// path: one kernel event per clock edge.
  void set_inline_edges(bool on) noexcept { inline_edges_ = on; }

  /// True when a clock may deliver an edge at `t` inside the running event:
  /// inlining is on, the enclosing run()/run_until() has budget left and
  /// its deadline is not before `t`, and `t` is strictly before the
  /// earliest queued event. Strict, because a queued event at `t` was
  /// scheduled before the edge would have been and so runs first.
  [[nodiscard]] bool can_inline(TimePs t) const noexcept {
    return inline_room_ != 0 && t <= horizon_ && (queue_.empty() || t < queue_.top().time);
  }
  /// Moves time to an inlined edge at `t`; only valid after can_inline(t).
  void advance_inline(TimePs t) noexcept {
    now_ = t;
    --inline_room_;
    ++inlined_;
  }
  /// How many of the edges first, first + period, first + 2 * period, ...
  /// can_inline would allow one after another, at most `limit`, provided
  /// nothing is scheduled in between.
  [[nodiscard]] u64 inline_edges(TimePs first, TimePs period, u64 limit) const noexcept {
    u64 n = std::min(limit, inline_room_);
    if (n == 0 || first > horizon_) return 0;
    n = std::min(n, (horizon_ - first).ps() / period.ps() + 1);
    if (queue_.empty()) return n;
    const TimePs top = queue_.top().time;
    if (first >= top) return 0;
    return std::min(n, (top - first - TimePs(1)).ps() / period.ps() + 1);
  }
  /// Moves time to `t`, the last of `n` edges inline_edges() allowed, and
  /// counts them as inlined burst edges.
  void advance_burst(TimePs t, u64 n) noexcept {
    now_ = t;
    inline_room_ -= n;
    inlined_ += n;
    burst_ += n;
  }

  /// Pre-sizes the event heap (parallel shards reserve once at pool start
  /// instead of growing the vector mid-epoch).
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  // --- owner-thread handoff --------------------------------------------------
  //
  // The latch-reset protocol for moving a shard between threads (the only
  // sanctioned way): the current owner calls release_ownership() while no
  // event is in flight, then exactly one other thread calls
  // adopt_ownership() before touching the kernel. Both directions are
  // counted in the topology; iso.shard.handoff flags a topology whose
  // releases and adopts do not pair up (a shard left ownerless, or adopted
  // without a release).

  /// Renounces the owner latch. Aborts (guard builds) when the caller is
  /// not the current owner.
  void release_ownership();
  /// Claims the owner latch for the calling thread. Aborts (guard builds)
  /// when another thread still holds it.
  void adopt_ownership();

  /// Structural registry of the elaborated model (modules, clocks, channel
  /// declarations). Populated as components construct; read by the model
  /// linter in src/analysis/model_lint.hpp.
  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  /// Simulation-wide metrics registry (counters/gauges/histograms/meters),
  /// the one place models count anything. Always present; instrumented
  /// models cache instrument references at construction.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept { return metrics_; }

  /// Optional span tracer. Null (the default) disables tracing; models
  /// check the pointer per event, so the off path costs one load.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  static constexpr u64 kDefaultEventBudget = 500'000'000ULL;

  /// True when this build enforces the single-owner-thread contract.
  [[nodiscard]] static constexpr bool thread_guard_active() noexcept {
#if UPARC_THREAD_GUARD
    return true;
#else
    return false;
#endif
  }

 private:
  /// Pops and runs the earliest event, letting clocks inline up to `room`
  /// more edges no later than `horizon`. Returns the events plus inlined
  /// edges this cost.
  u64 dispatch(TimePs horizon, u64 room);
  [[noreturn]] void budget_exceeded(const char* which, u64 max_events) const;

#if UPARC_THREAD_GUARD
  /// Latches the owner thread on first use; aborts on a foreign thread.
  /// Atomic so the guard itself is race-free under TSan.
  void check_owner_thread();
  std::atomic<std::thread::id> owner_thread_{};
#else
  void check_owner_thread() noexcept {}
#endif

  EventHeap queue_;
  Topology topology_;
  obs::Registry metrics_;
  obs::Tracer* tracer_ = nullptr;
  TimePs now_{};
  u64 seq_ = 0;
  u64 executed_ = 0;
  u64 inlined_ = 0;
  u64 burst_ = 0;
  bool inline_edges_ = true;
  // Inline limits of the event being dispatched; zero room outside one.
  TimePs horizon_{};
  u64 inline_room_ = 0;
};

}  // namespace uparc::sim
