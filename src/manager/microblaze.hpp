// MicroBlaze manager cost model.
//
// The Manager's observable effect on the experiments is *time* (cycles spent
// parsing, copying, launching) and *power* (a constant draw while busy or
// actively waiting). An instruction-cost model captures both without an ISA
// simulator: each routine charges a calibrated cycle budget.
//
// Calibration anchors:
//   * Fig. 5: the constant control+measurement overhead per reconfiguration
//     is ~1.25 us at 100 MHz => ~125 cycles (kControlLaunch).
//   * xps_hwicap cached mode reaches 14.5 MB/s at 100 MHz => ~27.5 cycles
//     per 32-bit word for the read-word/write-FIFO/poll-status loop.
//   * Section V: "without processor optimizations" the paper's own xps run
//     moved 1.5 MB/s => ~267 cycles/word (kXpsUnoptimizedCopyLoop).
#pragma once

#include "sim/module.hpp"

namespace uparc::manager {

struct MicroBlazeCosts {
  u32 control_launch = 125;        ///< Start pulse + bookkeeping (Fig. 5 anchor)
  u32 copy_loop_word = 8;          ///< tight LMB->BRAM word copy (preload)
  u32 xps_copy_loop_word = 27;     ///< cached xps_hwicap word loop (14.5 MB/s)
  u32 xps_unoptimized_word = 267;  ///< unoptimized xps loop (1.5 MB/s, §V)
  u32 sector_setup = 180;          ///< SystemACE sector command setup
  u32 irq_entry = 60;              ///< interrupt entry/exit (non-active-wait)
  u32 poll_iteration = 6;          ///< one Finish-poll spin iteration
};

class MicroBlaze : public sim::Module {
 public:
  MicroBlaze(sim::Simulation& sim, std::string name, Frequency f = Frequency::mhz(100),
             MicroBlazeCosts costs = {});

  [[nodiscard]] Frequency frequency() const noexcept { return freq_; }
  [[nodiscard]] const MicroBlazeCosts& costs() const noexcept { return costs_; }

  /// Wall time for `n` processor cycles.
  [[nodiscard]] TimePs cycles(u64 n) const { return freq_.period() * n; }

  /// Runs a routine costing `n` cycles, then invokes `done`. Also
  /// accumulates busy time for energy accounting.
  void execute(u64 n, std::function<void()> done);

  [[nodiscard]] TimePs busy_time() const noexcept { return busy_; }

 private:
  Frequency freq_;
  MicroBlazeCosts costs_;
  TimePs busy_{};
};

}  // namespace uparc::manager
