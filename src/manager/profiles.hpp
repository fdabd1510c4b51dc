// Manager implementation profiles.
//
// The paper implements the Manager's three tasks on a MicroBlaze but notes
// (§III-A) that "they can be handled by three different smaller hardware
// modules to save energy". A profile bundles the cost model and the power
// levels of one implementation; UPaRC is constructed against a profile, and
// bench/ablation_manager_impl quantifies the difference.
#pragma once

#include "manager/microblaze.hpp"
#include "power/calibration.hpp"

namespace uparc::manager {

struct ManagerProfile {
  std::string name = "microblaze";
  Frequency clock = Frequency::mhz(100);
  MicroBlazeCosts costs{};
  /// Rail draw during the control burst (launch) phase.
  double control_burst_mw = power::kManagerControlBurstMw;
  /// Rail draw while actively waiting for Finish.
  double active_wait_mw = power::kManagerActiveWaitMw;
};

/// The paper's measured configuration: MicroBlaze at 100 MHz.
[[nodiscard]] inline ManagerProfile microblaze_profile() { return ManagerProfile{}; }

/// Dedicated small FSMs for preload/control/adaptation (§III-A's
/// energy-saving alternative): single-digit-cycle control, a DMA-grade copy
/// loop, and a draw in the single milliwatts (tens of slices of logic
/// instead of a soft processor).
[[nodiscard]] inline ManagerProfile hardware_fsm_profile() {
  ManagerProfile p;
  p.name = "hardware_fsm";
  p.clock = Frequency::mhz(100);
  p.costs.control_launch = 8;      // Start pulse from a small FSM
  p.costs.copy_loop_word = 1;      // dedicated preload DMA: 1 word/cycle
  p.costs.sector_setup = 180;      // storage interface unchanged
  p.costs.irq_entry = 4;
  p.costs.poll_iteration = 1;
  p.control_burst_mw = 6.0;
  p.active_wait_mw = 1.5;
  return p;
}

}  // namespace uparc::manager
