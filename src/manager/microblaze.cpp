#include "manager/microblaze.hpp"

namespace uparc::manager {

MicroBlaze::MicroBlaze(sim::Simulation& sim, std::string name, Frequency f,
                       MicroBlazeCosts costs)
    : Module(sim, std::move(name)), freq_(f), costs_(costs) {}

void MicroBlaze::execute(u64 n, std::function<void()> done) {
  const TimePs t = cycles(n);
  busy_ += t;
  sim_.schedule_in(t, std::move(done));
}

}  // namespace uparc::manager
