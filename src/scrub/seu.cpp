#include "scrub/seu.hpp"

#include <stdexcept>

namespace uparc::scrub {

SeuInjector::SeuInjector(sim::Simulation& sim, std::string name, icap::ConfigPlane& plane,
                         std::vector<bits::FrameAddress> region, TimePs mean_interval,
                         u64 seed)
    : Module(sim, std::move(name)),
      plane_(plane),
      region_(std::move(region)),
      mean_interval_(mean_interval),
      rng_(seed) {
  if (region_.empty()) throw std::invalid_argument("SeuInjector: empty region");
  if (mean_interval_.ps() == 0) throw std::invalid_argument("SeuInjector: zero interval");
}

void SeuInjector::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void SeuInjector::stop() {
  running_ = false;
  ++epoch_;
}

SeuEvent SeuInjector::inject_now() {
  const bits::FrameAddress addr = region_[rng_.below(region_.size())];
  const Words* frame = plane_.read_frame(addr);
  const u32 words = plane_.device().frame_words;
  Words data = frame != nullptr ? *frame : Words(words, 0);

  SeuEvent ev;
  ev.time = sim_.now();
  ev.frame = addr;
  ev.word_index = static_cast<unsigned>(rng_.below(words));
  ev.bit_index = static_cast<unsigned>(rng_.below(32));
  data[ev.word_index] ^= 1u << ev.bit_index;
  plane_.write_frame(addr, data);
  log_.push_back(ev);
  metrics().counter(name() + ".injected").add();
  return ev;
}

void SeuInjector::schedule_next() {
  if (!running_) return;
  // Uniform jitter in [0.5, 1.5] * mean keeps arrivals aperiodic without
  // unbounded exponential tails (deterministic, seeded).
  const double jitter = 0.5 + rng_.uniform();
  const auto delay = TimePs(static_cast<u64>(mean_interval_.ps() * jitter));
  const u64 epoch = epoch_;
  sim_.schedule_in(delay, [this, epoch] {
    if (epoch != epoch_ || !running_) return;
    (void)inject_now();
    schedule_next();
  });
}

}  // namespace uparc::scrub
