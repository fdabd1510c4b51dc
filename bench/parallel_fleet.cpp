// Bench — parallel sharded fleet: throughput and wall-clock speedup of
// the barrier-epoch executor (sim/parallel.hpp) at 1/2/4/8 workers over
// a faulted 8-device serve soak with the restart drill on.
//
// Runs kRounds rounds; each round runs one soak per worker count, so host
// drift hits every column alike. Prints, per worker count, the median and
// interquartile range over the rounds of the fe.run wall time, of events/s
// (fleet simulation event equivalents: kernel events plus inlined clock
// edges, so the rate stays comparable with one event per edge) and of the
// speedup against the same round's 1-worker soak. One worker runs every
// shard inline on the calling thread; N workers are that thread plus
// N - 1 pool threads. Gates (exit code):
//   * identical artifacts: every soak's metrics JSON byte-identical to the
//     first 1-worker soak's, with zero invariant violations
//     (machine-independent);
//   * median speedup at 4 workers >= 2.0 — enforced only when the host has
//     >= 4 hardware threads (a pinned-shard executor cannot speed up
//     without cores, so the floor would only measure the machine).
// Deterministic in simulated results: one seed, every soak the same
// scenario; only wall-clock varies with the worker count.
#include <array>
#include <chrono>

#include "bench_util.hpp"
#include "serve/soak.hpp"

namespace {

using namespace uparc;

constexpr unsigned kDevices = 8;
constexpr u64 kRequests = 1200;
constexpr u64 kSeed = 1;
constexpr int kRounds = 5;
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::size_t kColumns = std::size(kWorkerCounts);

struct Soak {
  double wall_ms = 0.0;
  u64 events = 0;         ///< event equivalents (events + inlined edges)
  u64 kernel_events = 0;  ///< events the kernels actually dispatched
  u64 completed = 0;
  std::size_t violations = 0;
  std::string metrics_json;
};

/// One soak at the given worker count; identical scenario every time.
Soak run_soak(unsigned workers) {
  serve::ServeSoakConfig soak_cfg;
  soak_cfg.seed = kSeed;
  soak_cfg.requests = kRequests;
  soak_cfg.devices = kDevices;
  soak_cfg.load_factor = 2.0;
  soak_cfg.fault_scale = 1.0;

  serve::FrontEndConfig fe_cfg;
  fe_cfg.seed = kSeed;
  fe_cfg.devices = kDevices;
  fe_cfg.fault_scale = 1.0;
  fe_cfg.restart_after_loads = 25;
  fe_cfg.workers = workers;
  serve::FrontEnd fe(fe_cfg);

  serve::WorkloadGenerator gen(
      serve::make_tenants(soak_cfg, fe.rated_rps(), fe.warm_cost()),
      fe_cfg.modules, kSeed);

  const auto t0 = std::chrono::steady_clock::now();
  fe.run(gen, kRequests);
  const auto t1 = std::chrono::steady_clock::now();

  Soak out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events = fe.fleet_events_executed();
  out.kernel_events = fe.fleet_kernel_events();
  out.violations = fe.violations().size();
  for (const serve::RequestRecord& rec : fe.records())
    if (rec.outcome == serve::Outcome::kCompleted) ++out.completed;
  out.metrics_json = fe.metrics().render_json();
  return out;
}

}  // namespace

int main() {
  using namespace uparc;
  bench::banner("PARALLEL", "Sharded fleet executor: events/sec and speedup vs workers");
  bench::host_stamp();
  const bool enforce_speedup = bench::hardware_threads() >= 4;

  // soaks[round][column]
  std::vector<std::array<Soak, kColumns>> soaks(kRounds);
  for (auto& round : soaks) {
    for (std::size_t c = 0; c < kColumns; ++c) round[c] = run_soak(kWorkerCounts[c]);
  }
  const Soak& ref = soaks[0][0];

  std::printf("  %llu requests, %u devices, faults on, restart drill on, seed %llu\n",
              static_cast<unsigned long long>(kRequests), kDevices,
              static_cast<unsigned long long>(kSeed));
  std::printf("  median [IQR] of %d rounds; speedup gate %s\n\n", kRounds,
              enforce_speedup ? "enforced" : "recorded only (< 4 hardware threads)");
  std::printf("  %-7s %18s %22s %18s %10s %6s %6s\n", "workers", "wall_ms", "events/s",
              "speedup", "kernel_ev", "compl", "viol");

  bool identical = true;
  bench::Spread speedup_4w;
  for (std::size_t c = 0; c < kColumns; ++c) {
    std::vector<double> wall_ms;
    std::vector<double> events_per_sec;
    std::vector<double> speedup;
    std::size_t violations = 0;
    for (const auto& round : soaks) {
      const Soak& s = round[c];
      wall_ms.push_back(s.wall_ms);
      events_per_sec.push_back(static_cast<double>(s.events) / (s.wall_ms / 1e3));
      speedup.push_back(round[0].wall_ms / s.wall_ms);
      violations += s.violations;
      identical = identical && s.violations == 0 && s.metrics_json == ref.metrics_json;
    }
    const bench::Spread w = bench::spread(wall_ms);
    const bench::Spread e = bench::spread(events_per_sec);
    const bench::Spread x = bench::spread(speedup);
    if (kWorkerCounts[c] == 4) speedup_4w = x;
    const Soak& first = soaks[0][c];
    std::printf("  %-7u %8.1f [%7.1f] %11.0f [%8.0f] %7.2fx [%6.2fx] %10llu %6llu %6zu\n",
                kWorkerCounts[c], w.median, w.iqr(), e.median, e.iqr(), x.median, x.iqr(),
                static_cast<unsigned long long>(first.kernel_events),
                static_cast<unsigned long long>(first.completed), violations);
  }

  std::printf("\n  every soak's metrics byte-identical to 1 worker, zero violations: %s\n",
              identical ? "CONFIRMED" : "BROKEN");
  const bool fast_enough = speedup_4w.median >= 2.0;
  if (enforce_speedup) {
    std::printf("  median 4-worker wall-clock speedup >= 2.0x: %s (%.2fx)\n",
                fast_enough ? "CONFIRMED" : "MISSED", speedup_4w.median);
  }
  return identical && (!enforce_speedup || fast_enough) ? 0 : 1;
}
