// FaultInjector — wires a FaultPlan into the module-level fault hooks.
//
// The mem/icap/clocking/core modules stay fault-agnostic: each exposes a
// generic tap (read tap, lock-fault hook, write tap, truncate tap) and
// this layer, which sits at the top of the stack, installs closures that
// consult the plan. Each site keeps its own PRNG stream and
// counters, so identical plans replay identically and tests can assert on
// exactly which faults fired (mirrored into the module's stats scope).
// The BRAM read and ICAP write taps also carry a quiet answer (how many of
// the next opportunities fire nothing), so the stream bursts between fires.
#pragma once

#include <array>

#include "common/prng.hpp"
#include "common/quiet_run.hpp"
#include "core/uparc.hpp"
#include "fault/plan.hpp"
#include "sim/module.hpp"

namespace uparc::fault {

class FaultInjector : public sim::Module {
 public:
  FaultInjector(sim::Simulation& sim, std::string name, FaultPlan plan);

  /// Wires every applicable hook of a full UPaRC stack: BRAM port B,
  /// decompressor input, preloader truncation, the CLK_2 DCM's lock, and
  /// the ICAP write path.
  void arm(core::Uparc& uparc, icap::Icap& icap);

  // Individual hooks, for baseline controllers and targeted tests.
  void arm_bram(mem::Bram& bram);
  void arm_decompressor(core::DecompressorUnit& decomp);
  void arm_preloader(manager::Preloader& preloader);
  void arm_dcm(icap::Dcm& dcm);
  void arm_icap(icap::Icap& icap);

  /// Schedules a spontaneous LOCKED loss on `dcm` at absolute time `at`
  /// (explicitly timed, so replay stays deterministic).
  void schedule_lock_loss(icap::Dcm& dcm, TimePs at);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Hits delivered at `site` so far (every opportunity a burst covered).
  [[nodiscard]] u64 fires(FaultSite site) const noexcept {
    return states_[static_cast<std::size_t>(site)].fires;
  }
  [[nodiscard]] u64 total_fires() const noexcept;

  /// Re-derives every site stream from the master seed and clears the
  /// counters: an identically replayed run then sees identical faults.
  void reset();

  /// One opportunity at `site`: true when it fires (a fire or a hit of an
  /// open burst). What every tap calls once per word.
  bool should_fire(FaultSite site);
  /// A firing word with one bit flipped, drawn right after the firing draw.
  [[nodiscard]] u32 flip_bit(FaultSite site, u32 value);
  /// How many of the next `n` opportunities at `site` would not fire, up to
  /// the first that would. Draws each opportunity's value once, in order,
  /// and never past that first fire; should_fire() and pass() consume
  /// what it drew, so the three calls interleave freely.
  [[nodiscard]] u64 quiet_run(FaultSite site, u64 n);
  /// Lets `k` opportunities at `site` go by without firing, as k calls of
  /// should_fire() would. Throws std::logic_error past what quiet_run()
  /// has already answered.
  void pass(FaultSite site, u64 k);

 private:
  struct SiteState {
    Prng prng;
    u64 threshold = 0;  ///< a draw fires iff (next() >> 11) < threshold
    u64 opportunities = 0;
    u64 fires = 0;
    u64 burst_left = 0;
    u64 quiet = 0;           ///< drawn opportunities ahead that do not fire
    bool fire_next = false;  ///< the drawn opportunity after them fires
  };

  [[nodiscard]] SiteState& state(FaultSite s) {
    return states_[static_cast<std::size_t>(s)];
  }

  FaultPlan plan_;
  std::array<SiteState, kFaultSiteCount> states_;
};

}  // namespace uparc::fault
