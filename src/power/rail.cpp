#include "power/rail.hpp"

#include <algorithm>

namespace uparc::power {

Rail::Rail(sim::Simulation& sim, std::string name) : Module(sim, std::move(name)) {
  steps_.push_back(RailStep{TimePs(0), 0.0});
}

void Rail::set_contribution(const std::string& component, double mw) {
  if (mw == 0.0) {
    contributions_.erase(component);
  } else {
    contributions_[component] = mw;
  }
  double total = 0.0;
  for (const auto& [_, v] : contributions_) total += v;
  if (total == current_total_) return;
  current_total_ = total;
  record();
}

double Rail::contribution(const std::string& component) const {
  auto it = contributions_.find(component);
  return it == contributions_.end() ? 0.0 : it->second;
}

void Rail::record() {
  const TimePs now = sim_.now();
  if (!steps_.empty() && steps_.back().time == now) {
    steps_.back().total_mw = current_total_;
  } else {
    steps_.push_back(RailStep{now, current_total_});
  }
}

double Rail::energy_uj(TimePs t0, TimePs t1) const {
  if (t1 <= t0) return 0.0;
  double uj = 0.0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const TimePs seg_start = std::max(steps_[i].time, t0);
    const TimePs seg_end =
        std::min(i + 1 < steps_.size() ? steps_[i + 1].time : t1, t1);
    if (seg_end <= seg_start) continue;
    // mW * s = mJ; * 1e3 = uJ.
    uj += steps_[i].total_mw * (seg_end - seg_start).seconds() * 1e3;
  }
  return uj;
}

double Rail::peak_mw(TimePs t0, TimePs t1) const {
  double peak = 0.0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const TimePs seg_start = steps_[i].time;
    const TimePs seg_end = i + 1 < steps_.size() ? steps_[i + 1].time : t1;
    if (seg_end <= t0 || seg_start >= t1) continue;
    peak = std::max(peak, steps_[i].total_mw);
  }
  return peak;
}

}  // namespace uparc::power
