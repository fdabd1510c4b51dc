// Ablation — the bitstream cache hierarchy under a repeated-load workload.
//
// Headline: a two-module streaming pipeline re-loading the same images on
// one region. After warm-up every load is served from the staging window
// (resident) or a hot BRAM slot, skipping the 50 MB/s external-storage
// preload entirely; the gate requires a >= 5x end-to-end latency win at a
// >= 50% hit rate versus the identical workload with no cache attached.
// A working-set sweep then shows the tier gradient: sets that fit the hot
// slots, sets that spill to the DDR2 staging tier, and the eviction churn
// past that.
#include <optional>

#include "bench_util.hpp"
#include "txn/stack.hpp"

namespace {

using namespace uparc;

struct WorkloadResult {
  unsigned loads = 0;
  unsigned failed = 0;
  double mean_us = 0;
  double hit_rate = 0;       ///< all tiers, resident included
  u64 hits_resident = 0;
  u64 hits_hot = 0;
  u64 hits_staging = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 relocations = 0;
};

/// Drives `sequence` (module index, region index) through a RegionManager
/// on `sys` at CLK_2 = 362.5 MHz and reports per-tier accounting.
WorkloadResult run_workload(core::System& sys, unsigned module_count,
                            unsigned region_count, std::size_t module_kb,
                            const std::vector<std::pair<unsigned, unsigned>>& sequence) {
  WorkloadResult out;
  sim::Simulation& sim = sys.sim();
  const bits::Device& device = sys.uparc().config().device;
  (void)sys.set_frequency_blocking(Frequency::mhz(362.5));

  // Its own images (seeded 100 + m), not txn::make_module_set's: they feed
  // the checked-in results/BENCH_cache.json.
  region::ModuleLibrary library;
  std::size_t frames_per_module = 0;
  for (unsigned m = 0; m < module_count; ++m) {
    bits::GeneratorConfig gen;
    gen.device = device;
    gen.target_body_bytes = module_kb * 1024;
    gen.seed = 100 + m;
    gen.design_name = "m" + std::to_string(m);
    auto bs = bits::Generator(gen).generate();
    frames_per_module = bs.frames.size();
    if (!library.add_module(gen.design_name, bs).ok()) return out;
  }
  region::RegionManager manager(sim, "region_mgr",
                                txn::make_floorplan(device, region_count, frames_per_module),
                                library, sys.uparc(), sys.plane());

  double total_us = 0;
  for (const auto& [m, r] : sequence) {
    std::optional<region::LoadResult> got;
    manager.load("m" + std::to_string(m), "r" + std::to_string(r),
                 [&](const region::LoadResult& lr) { got = lr; });
    sim.run();
    if (!got || !got->success) {
      ++out.failed;
      continue;
    }
    ++out.loads;
    total_us += got->total_latency().us();
  }
  out.mean_us = out.loads == 0 ? 0.0 : total_us / out.loads;

  out.hits_resident =
      static_cast<u64>(sys.metrics().counter_value("uparc.cache_resident_hits"));
  if (cache::BitstreamCache* c = sys.cache()) {
    out.hits_hot = c->hits_hot();
    out.hits_staging = c->hits_staging();
    out.misses = c->misses();
    out.evictions = c->evictions();
    out.relocations = c->relocations();
    const u64 lookups = out.hits_resident + c->hits() + c->misses();
    out.hit_rate = lookups == 0 ? 0.0
                                : static_cast<double>(out.hits_resident + c->hits()) /
                                      static_cast<double>(lookups);
  }
  return out;
}

core::SystemConfig cached_config(std::size_t module_kb) {
  core::SystemConfig cfg;
  cfg.with_cache = true;
  cfg.cache.hot_slots = 2;
  cfg.cache.hot_slot_bytes = module_kb * 1024 + 4096;
  return cfg;
}

}  // namespace

int main() {
  using namespace uparc;
  bench::banner("ABLATION", "Bitstream cache hierarchy under repeated loads");

  constexpr std::size_t kModuleKb = 64;
  constexpr unsigned kLoads = 64;

  // Headline workload: m0 m0 m1 m1 ... on one region — every other load
  // re-stages the resident image, the rest alternate between the two hot
  // slots once warmed.
  std::vector<std::pair<unsigned, unsigned>> sequence;
  for (unsigned i = 0; i < kLoads; ++i) sequence.push_back({(i / 2) % 2, 0});

  core::System cached_sys(cached_config(kModuleKb));
  WorkloadResult cached = run_workload(cached_sys, 2, 1, kModuleKb, sequence);

  core::System plain_sys{core::SystemConfig{}};
  WorkloadResult plain = run_workload(plain_sys, 2, 1, kModuleKb, sequence);

  const double speedup = cached.mean_us > 0 ? plain.mean_us / cached.mean_us : 0.0;
  std::printf("  repeated-load pipeline: %u loads of 2 x %zu KB modules, one region\n\n",
              kLoads, kModuleKb);
  std::printf("  %-22s %12s %12s\n", "", "cached", "no cache");
  std::printf("  %-22s %10.1fus %10.1fus\n", "mean load latency", cached.mean_us,
              plain.mean_us);
  std::printf("  hit rate %.1f%%  (resident %llu, hot %llu, staging %llu, misses %llu)\n",
              cached.hit_rate * 100.0,
              static_cast<unsigned long long>(cached.hits_resident),
              static_cast<unsigned long long>(cached.hits_hot),
              static_cast<unsigned long long>(cached.hits_staging),
              static_cast<unsigned long long>(cached.misses));
  std::printf("  end-to-end speedup: %.1fx\n", speedup);

  // Working-set sweep: hot_slots = 2, so W <= 2 stays on-chip, W = 4 leans
  // on the staging tier, W = 8 adds eviction churn on the hot slots.
  std::printf("\n  working-set sweep (round-robin over 2 regions, 2 hot slots):\n");
  std::printf("  %6s %10s %8s %8s %8s %8s %8s %10s\n", "W", "hit-rate", "res", "hot",
              "stage", "miss", "evict", "mean");
  std::string sweep_json;
  for (unsigned w : {1u, 2u, 4u, 8u}) {
    std::vector<std::pair<unsigned, unsigned>> seq;
    for (unsigned i = 0; i < kLoads; ++i) seq.push_back({i % w, i % 2});
    core::System sys(cached_config(kModuleKb));
    WorkloadResult r = run_workload(sys, w, 2, kModuleKb, seq);
    std::printf("  %6u %9.1f%% %8llu %8llu %8llu %8llu %8llu %8.1fus\n", w,
                r.hit_rate * 100.0, static_cast<unsigned long long>(r.hits_resident),
                static_cast<unsigned long long>(r.hits_hot),
                static_cast<unsigned long long>(r.hits_staging),
                static_cast<unsigned long long>(r.misses),
                static_cast<unsigned long long>(r.evictions), r.mean_us);
    char buf[220];
    std::snprintf(buf, sizeof buf,
                  "    {\"working_set\": %u, \"hit_rate\": %.4f, \"mean_us\": %.2f, "
                  "\"misses\": %llu, \"evictions\": %llu, \"relocations\": %llu}%s\n",
                  w, r.hit_rate, r.mean_us, static_cast<unsigned long long>(r.misses),
                  static_cast<unsigned long long>(r.evictions),
                  static_cast<unsigned long long>(r.relocations), w == 8 ? "" : ",");
    sweep_json += buf;
  }

  const bool ok = cached.failed == 0 && plain.failed == 0 && cached.hit_rate >= 0.5 &&
                  speedup >= 5.0;

  char buf[400];
  std::snprintf(buf, sizeof buf,
                "{\n  \"bench\": \"cache\",\n  \"loads\": %u,\n  \"module_kb\": %zu,\n"
                "  \"mean_us_cached\": %.2f,\n  \"mean_us_uncached\": %.2f,\n"
                "  \"speedup\": %.2f,\n  \"hit_rate\": %.4f,\n"
                "  \"gate_speedup_min\": 5.0,\n  \"gate_hit_rate_min\": 0.5,\n"
                "  \"pass\": %s,\n  \"working_set_sweep\": [\n",
                kLoads, kModuleKb, cached.mean_us, plain.mean_us, speedup,
                cached.hit_rate, ok ? "true" : "false");
  std::string json = std::string(buf) + sweep_json + "  ]\n}\n";
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (write_text_file("results/BENCH_cache.json", json).ok()) {
    std::printf("\n  wrote results/BENCH_cache.json\n");
  }

  std::printf("\n  cache serves repeated loads >= 5x faster at >= 50%% hit rate: %s\n",
              ok ? "CONFIRMED" : "OFF");
  return ok ? 0 : 1;
}
