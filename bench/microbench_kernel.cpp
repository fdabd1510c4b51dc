// Simulator-kernel microbenchmark with a throughput gate.
//
// Measures the three hot loops everything else is built on — raw event
// dispatch, clocked-FSM cycles, and end-to-end reconfigurations — in
// wall-clock events per second, prints the median and interquartile range
// of kReps repetitions of each with the host they ran on, and exits
// non-zero when any median falls below its floor. The floors sit one to
// two orders of magnitude under the numbers an optimized build measures,
// so the gate only trips on catastrophic regressions (an accidental O(n^2)
// queue, a Debug-flag leak into the release preset), never on machine
// noise.
//
// These measure the *simulator*, not the paper's hardware; perfbench's
// layer ledger covers codec throughput and one 247 KB reconfiguration.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "core/system.hpp"

namespace {

using namespace uparc;

using WallClock = std::chrono::steady_clock;

constexpr int kReps = 5;

/// Wall-clock rates of kReps calls of `work`, which performs `items` units
/// per call.
template <typename Fn>
std::vector<double> rates(double items, Fn&& work) {
  std::vector<double> out;
  for (int r = 0; r < kReps; ++r) {
    const auto start = WallClock::now();
    work();
    out.push_back(items / std::chrono::duration<double>(WallClock::now() - start).count());
  }
  return out;
}

std::vector<double> measure_event_rate() {
  constexpr u64 kEvents = 200'000;
  return rates(static_cast<double>(kEvents), [&] {
    sim::Simulation sim;
    u64 count = 0;
    std::function<void()> tick = [&] {
      if (++count < kEvents) sim.schedule_in(TimePs(1000), tick);
    };
    sim.schedule_at(TimePs(0), tick);
    sim.run();
  });
}

std::vector<double> measure_cycle_rate() {
  constexpr u64 kCycles = 200'000;
  return rates(static_cast<double>(kCycles), [&] {
    sim::Simulation sim;
    sim::Clock clk(sim, "clk", Frequency::mhz(300));
    u64 cycles = 0;
    clk.on_rising([&] {
      if (++cycles >= kCycles) clk.disable();
    });
    clk.enable();
    sim.run();
  });
}

std::vector<double> measure_reconfig_rate() {
  constexpr int kRounds = 8;
  auto bs = bench::one_bitstream(64 * 1024);
  return rates(static_cast<double>(kRounds), [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::System sys;
      (void)sys.set_frequency_blocking(Frequency::mhz(362.5));
      (void)sys.stage(bs);
      (void)sys.reconfigure_blocking();
    }
  });
}

// Floors well below a release-build run on a 2020s x86 core. A trip means
// the simulator got an order of magnitude slower, not that CI was busy.
constexpr double kFloorEventsPerSec = 2e6;
constexpr double kFloorCyclesPerSec = 2e6;
constexpr double kFloorReconfigsPerSec = 50.0;

}  // namespace

int main() {
  bench::banner("BENCH kernel", "simulation kernel throughput gate");
  bench::host_stamp();
  std::printf("  median and IQR of %d repetitions; the gate reads the median\n\n", kReps);

  struct Row {
    const char* name;
    bench::Spread measured;
    double floor;
  } rows[] = {
      {"events_per_sec", bench::spread(measure_event_rate()), kFloorEventsPerSec},
      {"cycles_per_sec", bench::spread(measure_cycle_rate()), kFloorCyclesPerSec},
      {"reconfigs_per_sec", bench::spread(measure_reconfig_rate()), kFloorReconfigsPerSec},
  };

  bool ok = true;
  for (const Row& r : rows) {
    const bool pass = r.measured.median >= r.floor;
    ok = ok && pass;
    std::printf("  %-18s median %12.0f /s  IQR %11.0f /s (%4.1f%%)  floor %9.0f /s  %s\n",
                r.name, r.measured.median, r.measured.iqr(),
                100.0 * r.measured.iqr() / r.measured.median, r.floor,
                pass ? "ok" : "BELOW FLOOR");
  }
  return ok ? 0 : 1;
}
