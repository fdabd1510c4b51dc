// Shared helpers for the paper-reproduction benches: fixed-width table
// printing, the reference corpus generator, and the spread and host stamp
// of the host-time benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/generator.hpp"
#include "common/crc32.hpp"
#include "common/io.hpp"
#include "core/system.hpp"

namespace uparc::bench {

/// Prints a banner naming the experiment.
inline void banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// Paper-vs-measured row with a relative delta.
inline void row(const char* label, double paper, double measured, const char* unit) {
  const double delta = paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-28s paper %9.2f %-6s measured %9.2f %-6s (%+.1f%%)\n", label, paper, unit,
              measured, unit, delta);
}

/// Median and interquartile range of repeated host-time measurements.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

/// Quartiles of a non-empty sample, interpolated between order statistics.
inline Spread spread(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(sample.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sample.size() - 1);
    return sample[lo] + (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
  };
  return {at(0.5), at(0.25), at(0.75)};
}

// The bench targets define UPARC_BUILD_TYPE as their CMake configuration.
#ifndef UPARC_BUILD_TYPE
#define UPARC_BUILD_TYPE "unknown"
#endif

inline unsigned hardware_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Prints what a host-time number depends on besides the code: hardware
/// threads, compiler, build type and the CRC kernel the CPU selected.
inline void host_stamp() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown compiler";
#endif
  std::printf("  host: %u hardware threads, %s, %s build, %s CRC kernel\n", hardware_threads(),
              compiler, UPARC_BUILD_TYPE, crc32_kernel());
}

/// The reference bitstream corpus: high-utilization partial bitstreams at
/// the calibrated complexity midpoint (see DESIGN.md §5 / Table I notes).
inline std::vector<bits::PartialBitstream> reference_corpus(std::size_t bytes_each = 96 * 1024,
                                                            unsigned count = 3) {
  std::vector<bits::PartialBitstream> corpus;
  for (unsigned i = 0; i < count; ++i) {
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = bytes_each;
    cfg.seed = 1 + i;
    cfg.utilization = 0.95;
    cfg.complexity = 0.5;
    cfg.design_name = "corpus_" + std::to_string(i);
    corpus.push_back(bits::Generator(cfg).generate());
  }
  return corpus;
}

/// One partial bitstream of the requested size (defaults match the paper's
/// 216.5 KB power-measurement bitstream).
inline bits::PartialBitstream one_bitstream(std::size_t bytes = 216 * 1024 + 512,
                                            u64 seed = 1) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  return bits::Generator(cfg).generate();
}

/// Re-runs one reconfiguration of `bs` at `mhz` with tracing on and writes
/// the per-phase breakdown (busy time and energy per span category) to
/// results/BENCH_<id>_phases.json. Returns false when the run fails or the
/// file cannot be written — benches report but don't gate on it.
inline bool write_phase_report(const std::string& id, const bits::PartialBitstream& bs,
                               double mhz) {
  core::SystemConfig cfg;
  cfg.trace = true;
  core::System sys(cfg);
  (void)sys.set_frequency_blocking(Frequency::mhz(mhz));
  if (!sys.stage(bs).ok()) return false;
  auto r = sys.reconfigure_blocking();
  if (!r.success) return false;

  obs::Tracer& tr = *sys.tracer();
  tr.end_all();
  char buf[160];
  std::string json = "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"bench\": \"%s\",\n  \"clk2_mhz\": %.4g,\n"
                "  \"payload_bytes\": %zu,\n  \"total_us\": %.6f,\n"
                "  \"energy_uj\": %.6f,\n  \"phases\": {\n",
                id.c_str(), mhz, bs.body_bytes(), r.duration().us(), r.energy_uj);
  json += buf;
  const auto cats = tr.categories();
  for (std::size_t i = 0; i < cats.size(); ++i) {
    std::snprintf(buf, sizeof buf, "    \"%s\": {\"busy_us\": %.6f, \"energy_uj\": %.6f}%s\n",
                  cats[i].c_str(), tr.category_total(cats[i]).us(),
                  tr.category_energy_uj(cats[i]), i + 1 < cats.size() ? "," : "");
    json += buf;
  }
  json += "  }\n}\n";
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/BENCH_" + id + "_phases.json";
  if (!write_text_file(path, json).ok()) return false;
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

}  // namespace uparc::bench
