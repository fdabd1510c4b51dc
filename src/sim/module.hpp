// Base class for named hardware models living inside a Simulation.
#pragma once

#include <string>

#include "sim/kernel.hpp"

namespace uparc::sim {

/// A named simulation component registered in its simulation's topology;
/// concrete models (BRAM, ICAP, controllers, ...) derive from this.
class Module {
 public:
  Module(Simulation& sim, std::string name);
  virtual ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Simulation& sim() const noexcept { return sim_; }

 protected:
  /// Declares the clock driving this module in the topology registry (also
  /// marks the module as one that requires a clock).
  void bind_clock(const Clock& c);
  /// Marks this module as clocked without naming the clock yet; a module
  /// that requires a clock but never binds one is a model-lint error.
  void require_clock();

  /// The simulation-wide metrics registry (see Simulation::metrics()).
  /// Instrument names should be prefixed with the module name.
  [[nodiscard]] obs::Registry& metrics() const noexcept { return sim_.metrics(); }
  /// The attached span tracer, or null when tracing is off.
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return sim_.tracer(); }

  Simulation& sim_;

 private:
  std::string name_;
};

}  // namespace uparc::sim
