// Simulator-kernel microbenchmark with a checked-in throughput gate.
//
// Measures the three hot loops everything else is built on — raw event
// dispatch, clocked-FSM cycles, and end-to-end reconfigurations — in
// wall-clock events per second, writes results/BENCH_kernel.json, and
// exits non-zero when any number falls below its floor. The floors sit
// roughly 10x under the numbers a debug-free build measures, so the gate
// only trips on catastrophic regressions (an accidental O(n^2) queue, a
// Debug-flag leak into the release preset), never on machine noise.
// `tools/benchdiff` does the finer-grained comparison against the
// checked-in baseline.
//
// These measure the *simulator*, not the paper's hardware; perfbench's
// layer ledger covers codec throughput and one 247 KB reconfiguration.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_util.hpp"
#include "common/io.hpp"
#include "core/system.hpp"

namespace {

using namespace uparc;

// ---------------------------------------------------------------------------
// Gated run: self-timed throughput + results/BENCH_kernel.json

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Best-of-`reps` wall-clock rate for `work`, which performs `items` units
/// per call. Best-of (not mean) because the gate asks "can this machine
/// run the loop this fast at all" — scheduler preemption only ever slows
/// a rep down.
template <typename Fn>
double best_rate(int reps, double items, Fn&& work) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = WallClock::now();
    work();
    const double elapsed = seconds_since(start);
    if (elapsed > 0.0 && items / elapsed > best) best = items / elapsed;
  }
  return best;
}

double measure_event_rate() {
  constexpr u64 kEvents = 200'000;
  return best_rate(5, static_cast<double>(kEvents), [&] {
    sim::Simulation sim;
    u64 count = 0;
    std::function<void()> tick = [&] {
      if (++count < kEvents) sim.schedule_in(TimePs(1000), tick);
    };
    sim.schedule_at(TimePs(0), tick);
    sim.run();
  });
}

double measure_cycle_rate() {
  constexpr u64 kCycles = 200'000;
  return best_rate(5, static_cast<double>(kCycles), [&] {
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

double measure_reconfig_rate() {
  constexpr int kRounds = 8;
  auto bs = bench::one_bitstream(64 * 1024);
  return best_rate(3, static_cast<double>(kRounds), [&] {
    for (int i = 0; i < kRounds; ++i) {
      core::System sys;
      (void)sys.set_frequency_blocking(Frequency::mhz(362.5));
      (void)sys.stage(bs);
      (void)sys.reconfigure_blocking();
    }
  });
}

// Floors ~10x below a release-build run on a 2020s x86 core. A trip means
// the simulator got an order of magnitude slower, not that CI was busy.
constexpr double kFloorEventsPerSec = 2e6;
constexpr double kFloorCyclesPerSec = 2e6;
constexpr double kFloorReconfigsPerSec = 50.0;

int gated_main() {
  bench::banner("BENCH kernel", "simulation kernel throughput gate");

  const double events_per_sec = measure_event_rate();
  const double cycles_per_sec = measure_cycle_rate();
  const double reconfigs_per_sec = measure_reconfig_rate();

  struct Row {
    const char* name;
    double measured;
    double floor;
  } rows[] = {
      {"events_per_sec", events_per_sec, kFloorEventsPerSec},
      {"cycles_per_sec", cycles_per_sec, kFloorCyclesPerSec},
      {"reconfigs_per_sec", reconfigs_per_sec, kFloorReconfigsPerSec},
  };

  bool ok = true;
  for (const Row& r : rows) {
    const bool pass = r.measured >= r.floor;
    ok = ok && pass;
    std::printf("  %-20s measured %12.0f /s  floor %12.0f /s  %s\n", r.name, r.measured,
                r.floor, pass ? "ok" : "BELOW FLOOR");
  }

  char json[1024];
  std::snprintf(json, sizeof json,
                "{\n"
                "  \"bench\": \"kernel\",\n"
                "  \"events_per_sec\": %.0f,\n"
                "  \"cycles_per_sec\": %.0f,\n"
                "  \"reconfigs_per_sec\": %.2f,\n"
                "  \"gate_events_per_sec_min\": %.0f,\n"
                "  \"gate_cycles_per_sec_min\": %.0f,\n"
                "  \"gate_reconfigs_per_sec_min\": %.2f,\n"
                "  \"pass\": %s\n"
                "}\n",
                events_per_sec, cycles_per_sec, reconfigs_per_sec, kFloorEventsPerSec,
                kFloorCyclesPerSec, kFloorReconfigsPerSec, ok ? "true" : "false");
  if (write_text_file("results/BENCH_kernel.json", json).ok()) {
    std::printf("\n  wrote results/BENCH_kernel.json\n");
  } else {
    std::printf("\n  could not write results/BENCH_kernel.json (run from repo root)\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() { return gated_main(); }
