// Bench — parallel sharded fleet: throughput and wall-clock speedup of
// the barrier-epoch executor (sim/parallel.hpp) at 1/2/4/8 workers over
// a faulted 8-device serve soak with the restart drill on.
//
// Reports events/sec (fleet simulation event equivalents over fe.run wall
// time: kernel events plus inlined clock edges, so the rate stays
// comparable with one event per edge) per worker count, the kernel events
// actually dispatched, the speedup relative to the 1-worker reference, and
// byte-compares the 1-worker vs 4-worker metrics artifact — the executor's
// determinism contract. Gates (results/BENCH_parallel.json, exit code):
//   * identical_artifacts: 1w and 4w metrics JSON byte-identical and zero
//     invariant violations at every worker count (machine-independent);
//   * speedup_4w >= 2.0 — enforced only when the host has >= 4 hardware
//     threads (the CI container is often 1-wide; a pinned-shard executor
//     cannot speed up without cores, so the floor would only measure the
//     machine). The "machine" block records whether it was enforced.
// Deterministic in simulated results: one seed, every cell the same
// scenario; only wall-clock varies with the worker count.
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "serve/soak.hpp"

namespace {

using namespace uparc;

constexpr unsigned kDevices = 8;
constexpr u64 kRequests = 1200;
constexpr u64 kSeed = 1;

struct Cell {
  unsigned workers = 0;
  double wall_ms = 0.0;
  u64 events = 0;         ///< event equivalents (events + inlined edges)
  u64 kernel_events = 0;  ///< events the kernels actually dispatched
  u64 completed = 0;
  std::size_t violations = 0;
  std::string metrics_json;

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0.0;
  }
};

/// One soak at the given worker count; identical scenario across cells.
Cell run_cell(unsigned workers) {
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

  Cell out;
  out.workers = workers;
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

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const bool enforce_speedup = hw_threads >= 4;

  const unsigned worker_counts[] = {1, 2, 4, 8};
  std::vector<Cell> cells;
  for (unsigned w : worker_counts) cells.push_back(run_cell(w));
  const Cell& ref = cells[0];

  std::printf("  %llu requests, %u devices, faults on, restart drill on, seed %llu\n",
              static_cast<unsigned long long>(kRequests), kDevices,
              static_cast<unsigned long long>(kSeed));
  std::printf("  host hardware threads: %u (speedup gate %s)\n\n", hw_threads,
              enforce_speedup ? "enforced" : "recorded only");
  std::printf("  %-8s %10s %12s %12s %10s %9s %6s %6s\n", "workers", "wall_ms",
              "events", "events/s", "kernel_ev", "speedup", "compl", "viol");

  bool identical = true;
  std::size_t total_violations = 0;
  double speedup[4] = {1.0, 1.0, 1.0, 1.0};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    speedup[i] = c.wall_ms > 0.0 ? ref.wall_ms / c.wall_ms : 0.0;
    total_violations += c.violations;
    if (c.metrics_json != ref.metrics_json) identical = false;
    std::printf("  %-8u %10.1f %12llu %12.0f %10llu %8.2fx %6llu %6zu\n", c.workers,
                c.wall_ms, static_cast<unsigned long long>(c.events),
                c.events_per_sec(), static_cast<unsigned long long>(c.kernel_events),
                speedup[i],
                static_cast<unsigned long long>(c.completed), c.violations);
  }
  identical = identical && total_violations == 0;

  const bool pass = identical && (!enforce_speedup || speedup[2] >= 2.0);

  char buf[1000];
  std::snprintf(
      buf, sizeof buf,
      "{\n  \"bench\": \"parallel_fleet\",\n"
      "  \"requests\": %llu,\n  \"devices\": %u,\n  \"seed\": %llu,\n"
      "  \"events_per_sec_1w\": %.0f,\n  \"events_per_sec_4w\": %.0f,\n"
      "  \"kernel_events_1w\": %llu,\n  \"kernel_events_4w\": %llu,\n"
      "  \"speedup_2w\": %.3f,\n  \"speedup_4w\": %.3f,\n  \"speedup_8w\": %.3f,\n"
      "  \"identical_artifacts\": %s,\n  \"gate_speedup_4w_min\": 2.00,\n"
      "  \"pass\": %s,\n"
      "  \"machine\": {\"hw_threads\": %u, \"speedup_gate_enforced\": %s,\n"
      "    \"wall_ms_1w\": %.1f, \"wall_ms_2w\": %.1f, \"wall_ms_4w\": %.1f, "
      "\"wall_ms_8w\": %.1f}\n}\n",
      static_cast<unsigned long long>(kRequests), kDevices,
      static_cast<unsigned long long>(kSeed), ref.events_per_sec(),
      cells[2].events_per_sec(), static_cast<unsigned long long>(ref.kernel_events),
      static_cast<unsigned long long>(cells[2].kernel_events), speedup[1], speedup[2],
      speedup[3],
      identical ? "true" : "false", pass ? "true" : "false", hw_threads,
      enforce_speedup ? "true" : "false", cells[0].wall_ms, cells[1].wall_ms,
      cells[2].wall_ms, cells[3].wall_ms);
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (write_text_file("results/BENCH_parallel.json", buf).ok()) {
    std::printf("\n  wrote results/BENCH_parallel.json\n");
  }

  std::printf("\n  1w vs 4w metrics byte-identical with zero violations: %s\n",
              identical ? "CONFIRMED" : "BROKEN");
  if (enforce_speedup) {
    std::printf("  4-worker wall-clock speedup >= 2.0x: %s (%.2fx)\n",
                speedup[2] >= 2.0 ? "CONFIRMED" : "MISSED", speedup[2]);
  }
  return pass ? 0 : 1;
}
