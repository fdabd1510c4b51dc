// Simulator-kernel microbenchmark with a throughput gate.
//
// Measures the hot loops everything else is built on — raw event
// dispatch, clocked-FSM cycles, end-to-end reconfigurations and the
// configuration CRC over a 247 KB FDRI run — in wall-clock rates, prints
// the median and interquartile range of kReps repetitions of each with the
// host they ran on (its CRC kernel included), and exits non-zero when any
// median falls below its floor. The floors sit one to two orders of
// magnitude under the numbers an optimized build measures, so the gate
// only trips on catastrophic regressions (an accidental O(n^2) queue, a
// Debug-flag leak into the release preset), never on machine noise.
//
// These measure the *simulator*, not the paper's hardware; perfbench's
// layer ledger covers codec throughput and one 247 KB reconfiguration.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "bitstream/packet.hpp"
#include "common/prng.hpp"
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

std::vector<double> measure_config_crc_rate() {
  // The 63,253-word (247 KB) body of a perfbench reconfiguration, hashed
  // as one FDRI run: each word followed by the register address.
  constexpr std::size_t kWords = 63'253;
  constexpr int kPasses = 64;
  Words body(kWords);
  Prng rng(1);
  for (u32& w : body) w = static_cast<u32>(rng.next());
  bits::ConfigCrc crc;
  return rates(kPasses * 4.0 * kWords / 1e6, [&] {
    for (int i = 0; i < kPasses; ++i) crc.write(bits::ConfigReg::kFdri, body);
  });
}

// Floors well below a release-build run on a 2020s x86 core. A trip means
// the simulator got an order of magnitude slower, not that CI was busy.
// The CRC floor sits ten times under the portable sliced steps (2,000 to
// 2,300 MB/s on a 4-vCPU x86 VM), so it holds on a CPU without the
// carry-less fold too.
constexpr double kFloorEventsPerSec = 2e6;
constexpr double kFloorCyclesPerSec = 2e6;
constexpr double kFloorReconfigsPerSec = 50.0;
constexpr double kFloorConfigCrcMbPerSec = 200.0;

}  // namespace

int main() {
  bench::banner("BENCH kernel", "simulation kernel throughput gate");
  bench::host_stamp();
  std::printf("  median and IQR of %d repetitions; the gate reads the median\n\n", kReps);

  struct Row {
    const char* name;
    bench::Spread measured;
    double floor;
    const char* unit;
  } rows[] = {
      {"events_per_sec", bench::spread(measure_event_rate()), kFloorEventsPerSec, "/s"},
      {"cycles_per_sec", bench::spread(measure_cycle_rate()), kFloorCyclesPerSec, "/s"},
      {"reconfigs_per_sec", bench::spread(measure_reconfig_rate()), kFloorReconfigsPerSec, "/s"},
      {"config_crc_mb_per_s", bench::spread(measure_config_crc_rate()), kFloorConfigCrcMbPerSec,
       "MB/s"},
  };

  bool ok = true;
  for (const Row& r : rows) {
    const bool pass = r.measured.median >= r.floor;
    ok = ok && pass;
    std::printf("  %-19s median %12.0f %-4s  IQR %11.0f %-4s (%4.1f%%)  floor %9.0f %-4s  %s\n",
                r.name, r.measured.median, r.unit, r.measured.iqr(), r.unit,
                100.0 * r.measured.iqr() / r.measured.median, r.floor, r.unit,
                pass ? "ok" : "BELOW FLOOR");
  }
  return ok ? 0 : 1;
}
