// Bitstream prefetching: overlap preloading with the previous task's compute
// (paper §III-A-1: predicted schedules let "configuration data preloading be
// done during idle time which does not affect the system computational
// performance and could significantly improve the reconfiguration
// bandwidth").
//
// Given a Schedule, the analyzer places each activation's BRAM preload as
// late as possible inside the region's busy/idle timeline and reports how
// much of it hides under compute — and what the serial (no-prefetch)
// timeline would have cost instead. bench/ablation_prefetch reports it; no
// runtime component issues these preloads.
#pragma once

#include "sched/scheduler.hpp"

namespace uparc::sched {

struct PrefetchSlot {
  std::size_t activation_index = 0;
  TimePs preload_start{};
  TimePs preload_end{};
  bool fully_hidden = false;  ///< preload finished before the reconfig start
  TimePs exposed{};           ///< serialization added when not fully hidden
};

struct PrefetchReport {
  std::vector<PrefetchSlot> slots;
  TimePs total_preload{};
  TimePs total_exposed{};  ///< with prefetch: preload time that still serializes
  TimePs serial_penalty{}; ///< without prefetch: every preload serializes
  TimePs total_reconfig{}; ///< programming time itself (prefetch cannot hide it)
  /// Effective end-to-end bandwidth gain of prefetching: serialized time
  /// avoided as a fraction of the no-prefetch reconfiguration cost (serial
  /// preloads plus the programming time itself). An empty schedule hides
  /// everything there is to hide, so the degenerate value is 1.0.
  [[nodiscard]] double hidden_fraction() const {
    const double denom = static_cast<double>((serial_penalty + total_reconfig).ps());
    if (denom <= 0.0) return 1.0;
    return static_cast<double>((serial_penalty - total_exposed).ps()) / denom;
  }
};

struct PrefetchParams {
  /// Manager preload throughput (copy loop at 100 MHz, 8 cycles/word
  /// => 50 MB/s by default).
  Bandwidth preload_bandwidth = Bandwidth(50e6);
  /// Earliest instant the manager may begin preloading at all — a lint gate,
  /// recovery delay, or late harness start pushes this past zero. Every
  /// slot's window opens no earlier than this.
  TimePs origin{};
};

/// Analyzes prefetch opportunities in `schedule`. The first slot's window
/// opens at the schedule's actual origin (the first activation's ready time,
/// or `params.origin` if later), not at time zero.
[[nodiscard]] PrefetchReport analyze_prefetch(const TaskSet& set, const Schedule& schedule,
                                              PrefetchParams params = {});

}  // namespace uparc::sched
