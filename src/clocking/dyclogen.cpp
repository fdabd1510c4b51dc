#include "clocking/dyclogen.hpp"

#include <cmath>

namespace uparc::clocking {

DyCloGen::DyCloGen(sim::Simulation& sim, std::string name, Frequency f_in, TimePs lock_time)
    : Module(sim, std::move(name)), f_in_(f_in), lock_time_(lock_time) {
  static constexpr const char* kNames[3] = {"clk1_preload", "clk2_reconfig", "clk3_decomp"};
  drp_ = std::make_unique<icap::DrpBus>(sim, this->name() + ".drp");
  for (std::size_t i = 0; i < 3; ++i) {
    clocks_[i] = std::make_unique<sim::Clock>(sim, this->name() + "." + kNames[i], f_in);
    dcms_[i] = std::make_unique<icap::Dcm>(sim, this->name() + ".dcm" + std::to_string(i + 1),
                                           f_in, *clocks_[i], lock_time);
  }
}

std::optional<MdChoice> DyCloGen::request_frequency(ClockId id, Frequency target,
                                                    std::function<void()> done) {
  auto choice = closest_not_above(f_in_, target);
  if (!choice) return std::nullopt;

  icap::Dcm& dcm = *dcms_[index(id)];
  const std::string gauge_name =
      name() + ".clk" + std::to_string(index(id) + 1) + "_mhz";
  if (dcm.locked() && dcm.m() == choice->m && dcm.d() == choice->d) {
    metrics().counter(name() + ".retunes_skipped").add();
    metrics().gauge(gauge_name).set(frequency(id).in_mhz());
    if (done) done();
    return choice;
  }

  dcm.on_locked([this, id, gauge_name, done = std::move(done)] {
    metrics().gauge(gauge_name).set(frequency(id).in_mhz());
    if (done) done();
  });
  // Program through the DRP the way the real DyCloGen does: stage M and D,
  // then pulse reset via the status register to apply.
  drp_->attach(dcm);
  (void)drp_->write(icap::Dcm::kRegM, static_cast<u16>(choice->m - 1));
  (void)drp_->write(icap::Dcm::kRegD, static_cast<u16>(choice->d - 1));
  (void)drp_->write(icap::Dcm::kRegStatus, 0x2);
  metrics().counter(name() + ".retunes").add();
  return choice;
}

}  // namespace uparc::clocking
