// Power-rail bookkeeping: a named set of contributions forming a step
// function of total power over simulated time, with exact energy integration.
//
// Convention: all figures are *dynamic power above the idle floor*, in mW —
// the quantity the paper's shunt measurement resolves (Fig. 7 traces return
// to "idle power" between reconfigurations, and the reported energies are
// consistent with the above-idle reading; see DESIGN.md §5).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/module.hpp"

namespace uparc::power {

/// One step of the rail trace: total power from `time` onwards.
struct RailStep {
  TimePs time;
  double total_mw;
};

class Rail : public sim::Module {
 public:
  Rail(sim::Simulation& sim, std::string name);

  /// Sets the named contribution (mW) as of the current simulated time.
  /// Setting 0 removes the component's draw.
  void set_contribution(const std::string& component, double mw);

  [[nodiscard]] double current_mw() const noexcept { return current_total_; }
  [[nodiscard]] double contribution(const std::string& component) const;

  /// Full step-function history (deduplicated).
  [[nodiscard]] const std::vector<RailStep>& steps() const noexcept { return steps_; }

  /// Energy in microjoules integrated over [t0, t1].
  [[nodiscard]] double energy_uj(TimePs t0, TimePs t1) const;

  /// Peak power seen in [t0, t1].
  [[nodiscard]] double peak_mw(TimePs t0, TimePs t1) const;

 private:
  void record();

  std::map<std::string, double> contributions_;
  double current_total_ = 0.0;
  std::vector<RailStep> steps_;
};

}  // namespace uparc::power
