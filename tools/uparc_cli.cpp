// uparc_cli — command-line front end to the library.
//
//   uparc_cli gen      --out f.bit [--size-kb N] [--seed S] [--util U]
//                      [--complexity C] [--device v5|v6]
//   uparc_cli inspect  f.bit
//   uparc_cli compress f.bit out.uparc [--codec NAME]
//   uparc_cli ratios   f.bit [more.bit ...]
//   uparc_cli run      f.bit [--mhz F] [--csv trace.csv]
//   uparc_cli inject   f.bit [--site NAME] [--rate R] [--after N] [--burst N]
//                      [--max-fires N] [--param P] [--seed S] [--mhz F]
//   uparc_cli sweep    f.bit
//   uparc_cli lint     f.bit|f.uparc [--json] [--model] [--device v5|v6]
//   uparc_cli lint     --isolation [--devices N] [--regions N] [--modules N]
//   uparc_cli verify-determinism [--scenario serve|soak|crash|burst|all] [--seeds N]
//                      [--seed S] [--requests N] [--txns N] [--json]
//   uparc_cli wal      f.wal [--json]
//   uparc_cli crash-soak [--ops N] [--seed S] [--regions N] [--modules N]
//                      [--module-kb N] [--rate-scale X] [--stride N]
//                      [--max-points N] [--corruptions 0|1] [--json]
//                      [--wal-out f.wal] [--recovery-out f.json]
//                      [--sweep-out f.log]
//   uparc_cli trace    f.bit [--out trace.json] [--mhz F] [--metrics] [--json]
//                      [--scrub-rounds N]
//   uparc_cli soak     [--txns N] [--seed S] [--regions N] [--modules N]
//                      [--module-kb N] [--rate-scale X] [--cache 0|1]
//                      [--trace f.json] [--journal f.json] [--metrics f.json]
//                      [--json]
//   uparc_cli cache-stats [--loads N] [--modules N] [--regions N]
//                      [--module-kb N] [--hot-slots N] [--policy lru|energy]
//                      [--seed S] [--json]
//   uparc_cli slo      [--seed S] [--requests N] [--rate X] [--faults F]
//                      [--slo-file f.slo] [--out DIR] [--expect-clean]
//                      [--expect-transition] [--json]
//   uparc_cli help
//
// Codec names: RLE, LZ77, LZ78, Huffman, X-MatchPRO, Zip, 7-zip.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <string>
#include <vector>

#include "analysis/bitstream_lint.hpp"
#include "analysis/isolation_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/replay.hpp"
#include "analysis/wal_lint.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"
#include "common/io.hpp"
#include "compress/codec.hpp"
#include "compress/registry.hpp"
#include "compress/stats.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "region/region_manager.hpp"
#include "scrub/readback.hpp"
#include "scrub/scrubber.hpp"
#include "scrub/seu.hpp"
#include "serve/frontend.hpp"
#include "serve/soak.hpp"
#include "txn/crash_soak.hpp"
#include "txn/soak.hpp"
#include "txn/stack.hpp"
#include "txn/wal.hpp"

namespace {

using namespace uparc;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Throws std::invalid_argument naming the flag unless the whole value is
  /// a finite number.
  [[nodiscard]] double get_num(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    double v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() || !std::isfinite(v)) {
      throw std::invalid_argument("--" + key + " expects a number, got '" + text + "'");
    }
    return v;
  }
};

Args parse_args(int argc, char** argv, int start) {
  Args a;
  for (int i = start; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      std::string key = s.substr(2);
      std::string value = "true";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      a.options[key] = value;
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  return a;
}

bits::Device device_from(const Args& a) {
  return a.get("device", "v5") == "v6" ? bits::kVirtex6Lx240t : bits::kVirtex5Sx50t;
}

/// Reads a .bit file through bits::parse_file.
Result<bits::ParsedFile> load_bitstream(const std::string& path) {
  auto data = read_file(path);
  if (!data.ok()) return data.error();
  auto file = bits::parse_file(data.value());
  if (!file.ok()) return make_error("'" + path + "' is not a recognizable bitstream");
  return file;
}

int cmd_gen(const Args& a) {
  const std::string out = a.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen: --out is required\n");
    return 2;
  }
  bits::GeneratorConfig cfg;
  cfg.device = device_from(a);
  cfg.target_body_bytes = static_cast<std::size_t>(a.get_num("size-kb", 64)) * 1024;
  cfg.seed = static_cast<u64>(a.get_num("seed", 1));
  cfg.utilization = a.get_num("util", 0.95);
  cfg.complexity = a.get_num("complexity", 0.5);
  cfg.design_name = a.get("name", "cli_module");

  auto bs = bits::Generator(cfg).generate();
  auto st = write_file(out, bits::to_file(bs));
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu body bytes, %zu frames, device %s\n", out.c_str(),
              bs.body_bytes(), bs.frames.size(), std::string(cfg.device.name).c_str());
  return 0;
}

int cmd_inspect(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "inspect: need a .bit file\n");
    return 2;
  }
  auto file = load_bitstream(a.positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "inspect: %s\n", file.error().message.c_str());
    return 1;
  }
  const bits::Device& device = file.value().device;
  const bits::ParsedBody& body = file.value().body;
  const bits::BitstreamHeader& h = file.value().bitstream.header;
  const std::vector<bits::Frame>& frames = file.value().bitstream.frames;
  std::printf("design:    %s\n", h.design_name.c_str());
  std::printf("part:      %s (%s)\n", h.part_name.c_str(), std::string(device.name).c_str());
  std::printf("date/time: %s %s\n", h.date.c_str(), h.time.c_str());
  std::printf("body:      %u bytes\n", h.body_bytes);
  std::printf("frames:    %zu (frame = %u words)\n", frames.size(), device.frame_words);
  if (!frames.empty()) {
    const auto& s = frames.front().address;
    std::printf("region:    top=%u row=%u column=%u minor=%u\n", s.top, s.row, s.column,
                s.minor);
  }
  std::printf("crc:       %s\n", body.crc_ok ? "ok" : "MISMATCH");
  std::printf("desync:    %s\n", body.desynced ? "yes" : "NO");
  return body.crc_ok ? 0 : 1;
}

int cmd_compress(const Args& a) {
  if (a.positional.size() < 2) {
    std::fprintf(stderr, "compress: need input and output paths\n");
    return 2;
  }
  auto codec = compress::make_codec(a.get("codec", "X-MatchPRO"));
  if (codec == nullptr) {
    std::fprintf(stderr, "compress: unknown codec\n");
    return 2;
  }
  auto data = read_file(a.positional[0]);
  if (!data.ok()) {
    std::fprintf(stderr, "compress: %s\n", data.error().message.c_str());
    return 1;
  }
  auto sample = compress::measure_verified(*codec, data.value());
  Bytes container = codec->compress(data.value());
  auto st = write_file(a.positional[1], container);
  if (!st.ok()) {
    std::fprintf(stderr, "compress: %s\n", st.error().message.c_str());
    return 1;
  }
  std::printf("%s: %zu -> %zu bytes (%.1f%% saved, round-trip verified)\n",
              std::string(codec->name()).c_str(), sample.original_bytes,
              sample.compressed_bytes, sample.ratio_percent());
  return 0;
}

int cmd_ratios(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "ratios: need at least one file\n");
    return 2;
  }
  auto codecs = compress::table1_codecs();
  std::printf("%-14s", "file");
  for (const auto& c : codecs) std::printf(" %11.11s", std::string(c->name()).c_str());
  std::printf("\n");
  for (const auto& path : a.positional) {
    auto data = read_file(path);
    if (!data.ok()) {
      std::fprintf(stderr, "ratios: %s\n", data.error().message.c_str());
      return 1;
    }
    std::printf("%-14.14s", path.c_str());
    for (const auto& c : codecs) {
      auto sample = compress::measure_verified(*c, data.value());
      std::printf(" %10.1f%%", sample.ratio_percent());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_run(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "run: need a .bit file\n");
    return 2;
  }
  auto file = load_bitstream(a.positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "run: %s\n", file.error().message.c_str());
    return 1;
  }
  const bits::Device& device = file.value().device;
  const bits::PartialBitstream& bs = file.value().bitstream;

  core::SystemConfig cfg;
  cfg.uparc.device = device;
  core::System sys(cfg);
  const double mhz = a.get_num("mhz", 362.5);
  auto md = sys.set_frequency_blocking(Frequency::mhz(mhz));
  if (md) {
    std::printf("CLK_2 = %.4g MHz (M=%u D=%u)\n", md->f_out.in_mhz(), md->m, md->d);
  }
  if (auto st = sys.stage(bs); !st.ok()) {
    std::fprintf(stderr, "run: %s\n", st.error().message.c_str());
    return 1;
  }
  auto r = sys.reconfigure_blocking();
  if (!r.success) {
    std::fprintf(stderr, "run: reconfiguration failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("mode:      %s\n", std::string(sys.uparc().kind()).c_str());
  std::printf("time:      %s\n", to_string(r.duration()).c_str());
  std::printf("bandwidth: %.1f MB/s\n", r.bandwidth().mb_per_sec());
  std::printf("energy:    %.2f uJ\n", r.energy_uj);
  std::printf("verified:  %s\n", sys.plane().contains(bs.frames) ? "yes" : "NO");

  const std::string csv = a.get("csv", "");
  if (!csv.empty()) {
    power::VirtualScope scope(*sys.rail());
    auto samples = scope.capture(TimePs(0), r.end + TimePs::from_us(10),
                                 TimePs(std::max<u64>(r.duration().ps() / 500, 1000)));
    auto st = write_text_file(csv, power::VirtualScope::to_csv(samples));
    if (!st.ok()) {
      std::fprintf(stderr, "run: %s\n", st.error().message.c_str());
      return 1;
    }
    std::printf("trace:     %s (%zu samples)\n", csv.c_str(), samples.size());
  }
  return 0;
}

int cmd_inject(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "inject: need a .bit file\n");
    return 2;
  }
  auto file = load_bitstream(a.positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "inject: %s\n", file.error().message.c_str());
    return 1;
  }
  const bits::Device& device = file.value().device;
  const bits::PartialBitstream& bs = file.value().bitstream;

  const std::string site_name = a.get("site", "bram_read");
  fault::FaultSite site = fault::FaultSite::kCount;
  for (std::size_t i = 0; i < fault::kFaultSiteCount; ++i) {
    if (site_name == fault::to_string(static_cast<fault::FaultSite>(i))) {
      site = static_cast<fault::FaultSite>(i);
    }
  }
  if (site == fault::FaultSite::kCount) {
    std::fprintf(stderr, "inject: unknown site '%s'; sites:", site_name.c_str());
    for (std::size_t i = 0; i < fault::kFaultSiteCount; ++i) {
      std::fprintf(stderr, " %s", fault::to_string(static_cast<fault::FaultSite>(i)));
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  fault::FaultPlan plan;
  plan.seed = static_cast<u64>(a.get_num("seed", 1));
  fault::SiteConfig cfg;
  cfg.rate = a.get_num("rate", 1e-3);
  cfg.after = static_cast<u64>(a.get_num("after", 0));
  cfg.burst = static_cast<u64>(a.get_num("burst", 1));
  if (a.options.count("max-fires") != 0) {
    cfg.max_fires = static_cast<u64>(a.get_num("max-fires", 0));
  }
  cfg.param = a.get_num("param", 0);
  plan.arm(site, cfg);

  core::SystemConfig sys_cfg;
  sys_cfg.uparc.device = device;
  core::System sys(sys_cfg);
  // Arm before the retune so lock faults can hit the initial relock too.
  fault::FaultInjector inj(sys.sim(), "inject", plan);
  inj.arm(sys.uparc(), sys.icap());
  (void)sys.set_frequency_blocking(Frequency::mhz(a.get_num("mhz", 362.5)));

  auto out = sys.run_recovery_blocking(bs);
  std::printf("site:      %s (rate %g, seed %llu)\n", fault::to_string(site), cfg.rate,
              static_cast<unsigned long long>(plan.seed));
  for (const auto& rec : out.history) {
    std::printf("attempt %u: %-12s @ %.4g MHz -> %s%s%s\n", rec.attempt,
                to_string(rec.result.cause), rec.frequency.in_mhz(),
                to_string(rec.action), rec.result.error.empty() ? "" : "  # ",
                rec.result.error.c_str());
  }
  std::printf("outcome:   %s after %u attempt(s), %llu watchdog fire(s)\n",
              out.success ? "recovered" : "FAILED", out.attempts,
              static_cast<unsigned long long>(out.watchdog_fires));
  std::printf("faults:    %llu injected at %s\n",
              static_cast<unsigned long long>(inj.fires(site)), fault::to_string(site));
  std::printf("latency:   %s\n", to_string(out.end - out.start).c_str());
  std::printf("energy:    %.2f uJ total, %.2f uJ spent on recovery\n", out.energy_uj,
              out.recovery_energy_uj);
  return out.success ? 0 : 1;
}

int cmd_lint(const Args& a) {
  if (a.get("isolation", "") == "true") {
    // Shard-isolation audit over a serving fleet (no input file: the fleet
    // itself is the artifact). Each device simulation is one shard.
    serve::FrontEndConfig cfg;
    cfg.seed = static_cast<u64>(a.get_num("seed", 1));
    cfg.devices = static_cast<unsigned>(a.get_num("devices", 2));
    cfg.regions_per_device = static_cast<unsigned>(a.get_num("regions", 2));
    cfg.modules = static_cast<unsigned>(a.get_num("modules", 2));
    serve::FrontEnd fe(cfg);
    const analysis::Report report = fe.lint_isolation();
    if (a.get("json", "") == "true") {
      std::printf("%s", report.render_json().c_str());
    } else {
      std::printf("%s", report.render_text().c_str());
      std::printf("isolation: %u device shard(s), %zu error(s), %zu warning(s)\n",
                  fe.device_count(), report.error_count(),
                  report.count(analysis::Severity::kWarning));
    }
    return report.clean() ? 0 : 1;
  }
  if (a.positional.empty()) {
    std::fprintf(stderr, "lint: need a .bit or .uparc file (or --isolation)\n");
    return 2;
  }
  auto data = read_file(a.positional[0]);
  if (!data.ok()) {
    std::fprintf(stderr, "lint: %s\n", data.error().message.c_str());
    return 1;
  }
  const BytesView file = data.value();
  const bool container = !file.empty() && file[0] == compress::wire::kMagic;

  auto lint_with = [&](const bits::Device& device) {
    return container ? analysis::lint_container(device, file)
                     : analysis::lint_file(device, file);
  };
  // Pick the device: --device wins; otherwise sniff via the IDCODE packet
  // (lint against V5 and fall back to V6 when only the part mismatches).
  analysis::Report report;
  bits::Device device = bits::kVirtex5Sx50t;
  if (a.options.count("device") != 0) {
    device = device_from(a);
    report = lint_with(device);
  } else {
    report = lint_with(bits::kVirtex5Sx50t);
    if (report.has("bs.idcode.mismatch")) {
      analysis::Report v6 = lint_with(bits::kVirtex6Lx240t);
      if (!v6.has("bs.idcode.mismatch")) {
        device = bits::kVirtex6Lx240t;
        report = std::move(v6);
      }
    }
  }

  if (a.get("model", "") == "true") {
    // Also lint the elaborated model a run of this image would execute on.
    core::SystemConfig cfg;
    cfg.uparc.device = device;
    core::System sys(cfg);
    report.merge(analysis::lint_model(sys.sim()));
  }

  if (a.get("json", "") == "true") {
    std::printf("%s", report.render_json().c_str());
  } else {
    std::printf("%s", report.render_text().c_str());
    std::printf("%s: %zu error(s), %zu warning(s) [%s]\n", a.positional[0].c_str(),
                report.error_count(), report.count(analysis::Severity::kWarning),
                std::string(device.name).c_str());
  }
  return report.clean() ? 0 : 1;
}

int cmd_trace(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "trace: need a .bit file\n");
    return 2;
  }
  auto file = load_bitstream(a.positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "trace: %s\n", file.error().message.c_str());
    return 1;
  }
  const bits::Device& device = file.value().device;
  const bits::PartialBitstream& bs = file.value().bitstream;

  core::SystemConfig cfg;
  cfg.uparc.device = device;
  cfg.trace = true;
  core::System sys(cfg);
  (void)sys.set_frequency_blocking(Frequency::mhz(a.get_num("mhz", 362.5)));
  if (auto st = sys.stage(bs); !st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.error().message.c_str());
    return 1;
  }
  auto r = sys.reconfigure_blocking();

  const std::string out = a.get("out", "trace.json");
  if (auto st = write_text_file(out, sys.trace_json()); !st.ok()) {
    std::fprintf(stderr, "trace: %s\n", st.error().message.c_str());
    return 1;
  }

  // Optionally exercise the scrub loop so its registry counters (scans,
  // mismatched frames, repairs, injected upsets) show up under --metrics.
  const auto scrub_rounds = static_cast<unsigned>(a.get_num("scrub-rounds", 0));
  if (scrub_rounds > 0 && r.success) {
    if (auto st = sys.stage(bs); !st.ok()) {
      std::fprintf(stderr, "trace: restage for scrub: %s\n", st.error().message.c_str());
      return 1;
    }
    std::vector<bits::FrameAddress> window;
    for (const auto& f : bs.frames) window.push_back(f.address);
    scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), window, TimePs::from_us(100),
                           static_cast<u64>(a.get_num("seed", 1)));
    scrub::Readback readback(sys.sim(), "readback", sys.icap());
    scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), readback,
                             bs.frames,
                             scrub::ScrubberConfig{scrub::ScrubMode::kFrameRepair});
    for (unsigned i = 0; i < scrub_rounds; ++i) {
      (void)seu.inject_now();
      scrubber.scrub_once([](bool) {});
      sys.sim().run();
    }
    std::printf("scrub:     %u round(s), %llu frame(s) repaired, %llu upset(s)\n",
                scrub_rounds,
                static_cast<unsigned long long>(scrubber.scrub_stats().repairs),
                static_cast<unsigned long long>(seu.log().size()));
  }

  const obs::Tracer& tr = *sys.tracer();
  std::printf("trace:     %s (%zu spans, %zu categories) — open in ui.perfetto.dev\n",
              out.c_str(), tr.spans().size(), tr.categories().size());
  std::printf("result:    %s, %s, %.2f uJ\n", r.success ? "ok" : "FAILED",
              to_string(r.duration()).c_str(), r.energy_uj);
  std::printf("%-12s %12s %12s\n", "category", "busy us", "energy uJ");
  for (const std::string& cat : tr.categories()) {
    std::printf("%-12s %12.3f %12.2f\n", cat.c_str(), tr.category_total(cat).us(),
                tr.category_energy_uj(cat));
  }

  if (a.get("metrics", "") == "true") {
    const std::string metrics = a.get("json", "") == "true"
                                    ? sys.metrics().render_json()
                                    : sys.metrics().render_text();
    std::printf("%s", metrics.c_str());
    if (!metrics.empty() && metrics.back() != '\n') std::printf("\n");
  }
  return r.success ? 0 : 1;
}

int cmd_soak(const Args& a) {
  txn::SoakConfig cfg;
  cfg.transactions = static_cast<unsigned>(a.get_num("txns", 2000));
  cfg.seed = static_cast<u64>(a.get_num("seed", 1));
  cfg.regions = static_cast<unsigned>(a.get_num("regions", 4));
  cfg.modules = static_cast<unsigned>(a.get_num("modules", 6));
  cfg.module_kb = static_cast<std::size_t>(a.get_num("module-kb", 8));
  cfg.fault_scale = a.get_num("rate-scale", 1.0);
  cfg.cache = a.get_num("cache", 1) != 0;
  const std::string trace_out = a.get("trace", "");
  cfg.trace = !trace_out.empty();

  auto report = txn::run_soak(cfg);

  auto dump = [](const std::string& path, const std::string& what,
                 const std::string& body) {
    if (path.empty()) return true;
    if (auto st = write_text_file(path, body); !st.ok()) {
      std::fprintf(stderr, "soak: %s: %s\n", what.c_str(), st.error().message.c_str());
      return false;
    }
    return true;
  };
  if (!dump(trace_out, "trace", report.trace_json)) return 1;
  if (!dump(a.get("journal", ""), "journal", report.journal_json)) return 1;
  if (!dump(a.get("metrics", ""), "metrics", report.metrics_json)) return 1;

  if (a.get("json", "") == "true") {
    std::printf(
        "{\"transactions\": %u, \"commits\": %u, \"rollbacks_last_good\": %u, "
        "\"rollbacks_blank\": %u, \"failures\": %u, \"software_fallbacks\": %u, "
        "\"quarantines\": %llu, \"fault_fires\": %llu, \"violations\": %zu, "
        "\"ok\": %s}\n",
        report.transactions, report.commits, report.rollbacks_last_good,
        report.rollbacks_blank, report.failures, report.software_fallbacks,
        static_cast<unsigned long long>(report.quarantines),
        static_cast<unsigned long long>(report.fault_fires), report.violations.size(),
        report.ok() ? "true" : "false");
  } else {
    std::printf("%s", report.summary().c_str());
  }
  return report.ok() ? 0 : 1;
}

/// Shared serve-soak config from CLI flags (used by `serve` and `slo`).
serve::ServeSoakConfig serve_config_from(const Args& a) {
  serve::ServeSoakConfig cfg;
  cfg.seed = static_cast<u64>(a.get_num("seed", 1));
  cfg.requests = static_cast<u64>(a.get_num("requests", 2000));
  cfg.devices = std::max(1u, static_cast<unsigned>(a.get_num("devices", 2)));
  cfg.regions_per_device = static_cast<unsigned>(a.get_num("regions", 2));
  cfg.modules = static_cast<unsigned>(a.get_num("modules", 4));
  cfg.load_factor = a.get_num("rate", 2.0);
  cfg.fault_scale = a.get_num("faults", 1.0);
  cfg.dist = a.get("dist", "mixed");
  cfg.queue_capacity = static_cast<std::size_t>(a.get_num("queue", 64));
  // Restart drill: after N completed loads, tear each device's controller
  // down and cold-start it from its WAL mid-soak (0 = off).
  cfg.restart_after_loads = static_cast<u64>(a.get_num("restart-after", 0));
  // Fleet executor: N worker threads drive the device shards in barrier
  // epochs (0 = inline on the coordinating thread). Results are identical
  // for any N; only wall-clock changes.
  cfg.workers = static_cast<unsigned>(a.get_num("workers", 0));
  return cfg;
}

/// Writes the telemetry/alert/flight artifact set into `dir`.
int write_telemetry_artifacts(const std::string& dir, const serve::ServeSoakReport& report,
                              const char* cmd) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s: cannot create %s: %s\n", cmd, dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::pair<const char*, const std::string*> artifacts[] = {
      {"telemetry.json", &report.telemetry_json},
      {"telemetry.csv", &report.telemetry_csv},
      {"alerts.json", &report.alerts_json},
      {"flight.json", &report.flight_json},
  };
  for (const auto& [name, text] : artifacts) {
    if (auto st = write_text_file(dir + "/" + name, *text); !st.ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", cmd, name, st.error().message.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_serve(const Args& a) {
  serve::ServeSoakConfig cfg = serve_config_from(a);
  const std::string telemetry_out = a.get("telemetry-out", "");
  if (!telemetry_out.empty() || a.options.count("telemetry-us") != 0) {
    cfg.telemetry_interval = TimePs::from_us(a.get_num("telemetry-us", 250));
  }

  const serve::ServeSoakReport report = serve::run_soak(cfg);

  if (const std::string path = a.get("metrics", ""); !path.empty()) {
    if (auto st = write_text_file(path, report.metrics_json); !st.ok()) {
      std::fprintf(stderr, "serve: metrics: %s\n", st.error().message.c_str());
      return 1;
    }
  }
  if (const std::string path = a.get("health", ""); !path.empty()) {
    if (auto st = write_text_file(path, report.health_json); !st.ok()) {
      std::fprintf(stderr, "serve: health: %s\n", st.error().message.c_str());
      return 1;
    }
  }
  if (!telemetry_out.empty()) {
    if (int rc = write_telemetry_artifacts(telemetry_out, report, "serve"); rc != 0) {
      return rc;
    }
  }

  if (a.get("json", "") == "true") {
    std::printf(
        "{\"issued\": %llu, \"rated_rps\": %.1f, \"offered_rps\": %.1f, "
        "\"completed\": [%llu, %llu, %llu], \"deadline_miss\": [%llu, %llu, %llu], "
        "\"rejected\": [%llu, %llu, %llu], \"shed\": [%llu, %llu, %llu], "
        "\"timed_out\": [%llu, %llu, %llu], \"retries\": %llu, "
        "\"breaker_opens\": %llu, \"software_fallbacks\": %llu, "
        "\"fault_fires\": %llu, \"restarts\": %llu, \"violations\": %zu, \"ok\": %s}\n",
        static_cast<unsigned long long>(report.issued), report.rated_rps,
        report.offered_rps, static_cast<unsigned long long>(report.completed[0]),
        static_cast<unsigned long long>(report.completed[1]),
        static_cast<unsigned long long>(report.completed[2]),
        static_cast<unsigned long long>(report.deadline_miss[0]),
        static_cast<unsigned long long>(report.deadline_miss[1]),
        static_cast<unsigned long long>(report.deadline_miss[2]),
        static_cast<unsigned long long>(report.rejected[0]),
        static_cast<unsigned long long>(report.rejected[1]),
        static_cast<unsigned long long>(report.rejected[2]),
        static_cast<unsigned long long>(report.shed[0]),
        static_cast<unsigned long long>(report.shed[1]),
        static_cast<unsigned long long>(report.shed[2]),
        static_cast<unsigned long long>(report.timed_out[0]),
        static_cast<unsigned long long>(report.timed_out[1]),
        static_cast<unsigned long long>(report.timed_out[2]),
        static_cast<unsigned long long>(report.retries),
        static_cast<unsigned long long>(report.breaker_opens),
        static_cast<unsigned long long>(report.software_fallbacks),
        static_cast<unsigned long long>(report.fault_fires),
        static_cast<unsigned long long>(report.restarts), report.violations.size(),
        report.ok() ? "true" : "false");
  } else {
    std::printf("%s", report.summary().c_str());
  }
  return report.ok() ? 0 : 1;
}

// Runs a serve soak with telemetry + SLO burn-rate alerting and reports the
// alert log. Gates for CI: --expect-clean fails on any alert;
// --expect-transition fails unless at least one alert fired AND resolved.
int cmd_slo(const Args& a) {
  serve::ServeSoakConfig cfg = serve_config_from(a);
  cfg.load_factor = a.get_num("rate", 1.0);
  cfg.fault_scale = a.get_num("faults", 0.0);
  cfg.telemetry_interval = TimePs::from_us(a.get_num("telemetry-us", 250));
  cfg.telemetry_capacity = static_cast<std::size_t>(a.get_num("capacity", 4096));

  if (const std::string path = a.get("slo-file", ""); !path.empty()) {
    auto bytes = read_file(path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "slo: %s\n", bytes.error().message.c_str());
      return 2;
    }
    std::string text(bytes.value().begin(), bytes.value().end());
    std::size_t pos = 0;
    while (pos <= text.size()) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      std::string line = text.substr(pos, nl - pos);
      pos = nl + 1;
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      // Validate here so a typo is a CLI error, not a soak abort.
      auto parsed = obs::parse_objective(line);
      if (!parsed.ok()) {
        std::fprintf(stderr, "slo: %s\n", parsed.error().message.c_str());
        return 2;
      }
      cfg.slo_lines.push_back(std::move(line));
    }
  }

  const serve::ServeSoakReport report = serve::run_soak(cfg);

  if (const std::string out = a.get("out", ""); !out.empty()) {
    if (int rc = write_telemetry_artifacts(out, report, "slo"); rc != 0) return rc;
  }

  bool gate_ok = report.ok();
  std::string gate_why;
  if (a.get("expect-clean", "") == "true" && report.alerts_fired != 0) {
    gate_ok = false;
    gate_why = "expected a clean run but " + std::to_string(report.alerts_fired) +
               " alert(s) fired";
  }
  if (a.get("expect-transition", "") == "true" &&
      (report.alerts_fired == 0 || report.alerts_resolved == 0)) {
    gate_ok = false;
    gate_why = "expected a firing->resolved transition but saw fired=" +
               std::to_string(report.alerts_fired) +
               " resolved=" + std::to_string(report.alerts_resolved);
  }

  if (a.get("json", "") == "true") {
    std::printf(
        "{\"issued\": %llu, \"alerts_fired\": %llu, \"alerts_resolved\": %llu, "
        "\"violations\": %zu, \"ok\": %s}\n",
        static_cast<unsigned long long>(report.issued),
        static_cast<unsigned long long>(report.alerts_fired),
        static_cast<unsigned long long>(report.alerts_resolved), report.violations.size(),
        gate_ok ? "true" : "false");
  } else {
    std::printf("%s", report.summary().c_str());
    if (!report.alerts_json.empty()) {
      std::printf("alert log:\n%s", report.alerts_fired + report.alerts_resolved == 0
                                        ? "  (no alerts)\n"
                                        : report.alerts_json.c_str());
    }
  }
  if (!gate_why.empty()) std::fprintf(stderr, "slo: %s\n", gate_why.c_str());
  return gate_ok ? 0 : 1;
}

int cmd_sweep(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "sweep: need a .bit file\n");
    return 2;
  }
  auto file = load_bitstream(a.positional[0]);
  if (!file.ok()) {
    std::fprintf(stderr, "sweep: %s\n", file.error().message.c_str());
    return 1;
  }
  const bits::Device& device = file.value().device;
  const bits::PartialBitstream& bs = file.value().bitstream;
  std::printf("%10s %12s %10s %10s\n", "CLK_2", "time", "MB/s", "uJ");
  for (double mhz : {50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 362.5}) {
    core::SystemConfig cfg;
    cfg.uparc.device = device;
    core::System sys(cfg);
    (void)sys.set_frequency_blocking(Frequency::mhz(mhz));
    if (!sys.stage(bs).ok()) continue;
    auto r = sys.reconfigure_blocking();
    if (!r.success) continue;
    std::printf("%7.1f MHz %12s %10.1f %10.2f\n", mhz, to_string(r.duration()).c_str(),
                r.bandwidth().mb_per_sec(), r.energy_uj);
  }
  return 0;
}

// Canned repeated-load workload for cache-stats: round-robin over a small
// module set across the regions, so every module is loaded many times and
// relocation sharing (same content, different origin) gets exercised.
struct CacheStatsRun {
  unsigned completed = 0;
  unsigned failed = 0;
  double total_us = 0;
  double hit_us = 0;
  double miss_us = 0;
  unsigned hit_loads = 0;
  unsigned miss_loads = 0;
};

CacheStatsRun run_cache_workload(core::System& sys, unsigned loads, unsigned modules,
                                 unsigned regions, std::size_t module_kb, u64 seed) {
  CacheStatsRun out;
  sim::Simulation& sim = sys.sim();
  const bits::Device& device = sys.uparc().config().device;
  const txn::ModuleSet set = txn::make_module_set(device, modules, module_kb, seed);
  region::RegionManager manager(sim, "region_mgr",
                                txn::make_floorplan(device, regions, set.frames()),
                                set.library, sys.uparc(), sys.plane());

  for (unsigned i = 0; i < loads; ++i) {
    const std::string module = "m" + std::to_string(i % modules);
    const std::string region = "r" + std::to_string(i % regions);
    std::optional<region::LoadResult> got;
    manager.load(module, region, [&](const region::LoadResult& r) { got = r; });
    sim.run();
    if (!got || !got->success) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    const double us = got->total_latency().us();
    out.total_us += us;
    if (cache::is_hit(got->cache_tier)) {
      ++out.hit_loads;
      out.hit_us += us;
    } else {
      ++out.miss_loads;
      out.miss_us += us;
    }
  }
  return out;
}

int cmd_cache_stats(const Args& a) {
  const unsigned loads = static_cast<unsigned>(a.get_num("loads", 64));
  const unsigned modules = std::max(1u, static_cast<unsigned>(a.get_num("modules", 3)));
  const unsigned regions = std::max(1u, static_cast<unsigned>(a.get_num("regions", 2)));
  const std::size_t module_kb =
      std::max<std::size_t>(1, static_cast<std::size_t>(a.get_num("module-kb", 64)));
  const u64 seed = static_cast<u64>(a.get_num("seed", 1));

  core::SystemConfig cfg;
  cfg.with_cache = true;
  cfg.cache_policy = a.get("policy", "lru");
  cfg.cache.hot_slots = static_cast<std::size_t>(a.get_num("hot-slots", 2));
  cfg.cache.hot_slot_bytes = module_kb * 1024 + 4096;
  core::System sys(cfg);
  if (sys.cache() == nullptr) {
    std::fprintf(stderr, "cache-stats: unknown --policy (use lru or energy)\n");
    return 2;
  }
  // The identical workload with the cache detached is the baseline every
  // load pays the full external-storage preload against.
  core::System base{core::SystemConfig{}};
  CacheStatsRun cached;
  CacheStatsRun uncached;
  try {
    cached = run_cache_workload(sys, loads, modules, regions, module_kb, seed);
    uncached = run_cache_workload(base, loads, modules, regions, module_kb, seed);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "cache-stats: %s\n", e.what());
    return 1;
  }

  const cache::BitstreamCache& c = *sys.cache();
  const auto resident = static_cast<u64>(
      sys.metrics().counter_value("uparc.cache_resident_hits"));
  const double mean = [](double us, unsigned n) {
    return n == 0 ? 0.0 : us / n;
  }(cached.total_us, cached.completed);
  const double base_mean = uncached.completed == 0
                               ? 0.0
                               : uncached.total_us / uncached.completed;
  const double speedup = mean > 0 ? base_mean / mean : 0.0;
  const u64 lookups = c.hits() + resident + c.misses();
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(c.hits() + resident) / static_cast<double>(lookups);

  if (a.get("json", "") == "true") {
    std::printf(
        "{\"loads\": %u, \"completed\": %u, \"failed\": %u, "
        "\"hits_resident\": %llu, \"hits_hot\": %llu, \"hits_staging\": %llu, "
        "\"misses\": %llu, \"hit_rate\": %.4f, \"evictions\": %llu, "
        "\"relocations\": %llu, \"poisoned_rejects\": %llu, "
        "\"mean_load_us\": %.2f, \"mean_load_us_uncached\": %.2f, "
        "\"speedup\": %.2f, \"policy\": \"%s\"}\n",
        loads, cached.completed, cached.failed,
        static_cast<unsigned long long>(resident),
        static_cast<unsigned long long>(c.hits_hot()),
        static_cast<unsigned long long>(c.hits_staging()),
        static_cast<unsigned long long>(c.misses()), hit_rate,
        static_cast<unsigned long long>(c.evictions()),
        static_cast<unsigned long long>(c.relocations()),
        static_cast<unsigned long long>(c.poisoned_rejects()), mean, base_mean, speedup,
        std::string(c.policy().name()).c_str());
    return cached.failed == 0 ? 0 : 1;
  }

  std::printf("bitstream cache: %u loads, %u modules x %zu KB over %u regions (%s)\n",
              loads, modules, module_kb, regions, std::string(c.policy().name()).c_str());
  std::printf("  hits      resident %llu  hot %llu  staging %llu   (rate %.1f%%)\n",
              static_cast<unsigned long long>(resident),
              static_cast<unsigned long long>(c.hits_hot()),
              static_cast<unsigned long long>(c.hits_staging()), hit_rate * 100.0);
  std::printf("  misses    %llu   evictions %llu   relocation shares %llu   poisoned %llu\n",
              static_cast<unsigned long long>(c.misses()),
              static_cast<unsigned long long>(c.evictions()),
              static_cast<unsigned long long>(c.relocations()),
              static_cast<unsigned long long>(c.poisoned_rejects()));
  std::printf("  occupancy %zu entries (%zu hot), %zu KB staged\n", c.entry_count(),
              c.hot_count(), c.staging_bytes_used() / 1024);
  std::printf("  latency   mean load %.1f us cached vs %.1f us uncached  (%.1fx)\n", mean,
              base_mean, speedup);
  return cached.failed == 0 ? 0 : 1;
}

int cmd_wal(const Args& a) {
  if (a.positional.empty()) {
    std::fprintf(stderr, "wal: need a log file\n");
    return 2;
  }
  auto data = read_file(a.positional.front());
  if (!data.ok()) {
    std::fprintf(stderr, "wal: %s\n", data.error().message.c_str());
    return 1;
  }
  const txn::WalScan scan = txn::scan_wal(data.value());
  const analysis::Report report = analysis::lint_wal(scan);
  if (a.get("json", "") == "true") {
    std::printf("{\"scan\":%s,\"lint\":%s}\n", txn::render_wal_json(scan).c_str(),
                report.render_json().c_str());
  } else {
    std::printf("%s", txn::render_wal_text(scan).c_str());
    if (!report.empty()) std::printf("%s", report.render_text().c_str());
  }
  // Any damage is a non-zero exit: errors mean the log lies about history,
  // warnings (torn/corrupt tail) mean it needs recovery before reuse.
  const bool damaged =
      report.error_count() > 0 || report.count(analysis::Severity::kWarning) > 0;
  return damaged ? 1 : 0;
}

int cmd_crash_soak(const Args& a) {
  txn::CrashSoakConfig cfg;
  cfg.seed = static_cast<u64>(a.get_num("seed", 1));
  cfg.ops = static_cast<unsigned>(a.get_num("ops", 10));
  cfg.regions = static_cast<unsigned>(a.get_num("regions", 2));
  cfg.modules = static_cast<unsigned>(a.get_num("modules", 3));
  cfg.module_kb = static_cast<std::size_t>(a.get_num("module-kb", 4));
  cfg.fault_scale = a.get_num("rate-scale", 1.0);
  cfg.crash_stride = std::max(1u, static_cast<unsigned>(a.get_num("stride", 1)));
  cfg.max_crash_points = static_cast<unsigned>(a.get_num("max-points", 0));
  cfg.sweep_corruptions = a.get_num("corruptions", 1) != 0;

  const txn::CrashSoakReport report = txn::run_crash_soak(cfg);

  auto dump = [](const std::string& path, const std::string& what,
                 const std::string& body) {
    if (path.empty()) return true;
    if (auto st = write_text_file(path, body); !st.ok()) {
      std::fprintf(stderr, "crash-soak: %s: %s\n", what.c_str(),
                   st.error().message.c_str());
      return false;
    }
    return true;
  };
  const std::string wal(report.reference_wal.begin(), report.reference_wal.end());
  if (!dump(a.get("wal-out", ""), "wal", wal)) return 1;
  if (!dump(a.get("recovery-out", ""), "recovery", report.last_recovery_json)) return 1;
  if (!dump(a.get("sweep-out", ""), "sweep", report.sweep_log)) return 1;

  if (a.get("json", "") == "true") {
    std::printf(
        "{\"reference_records\": %llu, \"runs\": %u, \"crashes\": %u, "
        "\"recoveries_ok\": %u, \"unacked_commits\": %u, \"adopted\": %u, "
        "\"reprogrammed\": %u, \"aborts_clean\": %u, \"aborts_reprogram\": %u, "
        "\"violations\": %zu, \"ok\": %s}\n",
        static_cast<unsigned long long>(report.reference_records), report.runs,
        report.crashes, report.recoveries_ok, report.unacked_commits, report.adopted,
        report.reprogrammed, report.aborts_clean, report.aborts_reprogram,
        report.violations.size(), report.ok() ? "true" : "false");
  } else {
    std::printf("%s", report.summary().c_str());
  }
  return report.ok() ? 0 : 1;
}

int cmd_verify_determinism(const Args& a) {
  const std::string scenario = a.get("scenario", "all");
  if (scenario != "all" && scenario != "serve" && scenario != "soak" &&
      scenario != "crash" && scenario != "burst") {
    std::fprintf(stderr,
                 "verify-determinism: --scenario must be serve, soak, crash, burst or all\n");
    return 2;
  }
  const unsigned seeds = static_cast<unsigned>(a.get_num("seeds", 1));
  const u64 seed0 = static_cast<u64>(a.get_num("seed", 1));
  const bool json = a.get("json", "") == "true";

  std::vector<analysis::ReplayResult> results;
  for (unsigned i = 0; i < seeds; ++i) {
    const u64 seed = seed0 + i;
    if (scenario == "all" || scenario == "serve") {
      serve::ServeSoakConfig cfg;
      cfg.seed = seed;
      cfg.requests = static_cast<u64>(a.get_num("requests", 300));
      cfg.devices = static_cast<unsigned>(a.get_num("devices", 2));
      results.push_back(analysis::verify_serve_replay(cfg));
      // Same scenario at 2 and 4 workers against 1 worker: all must be
      // byte-identical (worker-count invariance).
      results.push_back(analysis::verify_parallel_replay(cfg));
    }
    if (scenario == "all" || scenario == "soak") {
      txn::SoakConfig cfg;
      cfg.seed = seed;
      cfg.transactions = static_cast<unsigned>(a.get_num("txns", 200));
      results.push_back(analysis::verify_txn_replay(cfg));
    }
    if (scenario == "all" || scenario == "crash") {
      txn::CrashSoakConfig cfg;
      cfg.seed = seed;
      cfg.ops = static_cast<unsigned>(a.get_num("ops", 6));
      // The gate proves recovery reproducibility, not coverage — a bounded
      // sweep keeps it fast; the crash-soak job owns exhaustiveness.
      cfg.max_crash_points = static_cast<unsigned>(a.get_num("max-points", 8));
      cfg.sweep_corruptions = a.get_num("corruptions", 1) != 0;
      results.push_back(analysis::verify_crash_replay(cfg));
    }
    if (scenario == "all" || scenario == "burst") {
      // Inline clock edges vs one kernel event per edge.
      results.push_back(analysis::verify_burst_replay(seed));
    }
  }

  bool all_identical = true;
  analysis::Report merged;
  for (const analysis::ReplayResult& r : results) {
    all_identical = all_identical && r.identical();
    merged.merge(r.report);
    if (!json) std::printf("%s\n", r.summary().c_str());
  }
  if (json) {
    std::printf("%s", merged.render_json().c_str());
  } else {
    std::printf("verify-determinism: %zu replay(s), %zu divergence(s) -> %s\n",
                results.size(), merged.diagnostics().size(),
                all_identical ? "DETERMINISTIC" : "NONDETERMINISTIC");
  }
  return all_identical ? 0 : 1;
}

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "uparc_cli <command> [args]\n"
      "  gen      generate a synthetic partial bitstream\n"
      "           --out f.bit [--size-kb N] [--seed S] [--util U]\n"
      "           [--complexity C] [--device v5|v6] [--name NAME]\n"
      "  inspect  f.bit — parse and describe a bitstream\n"
      "  compress in out [--codec NAME] — build a compressed container\n"
      "  ratios   f.bit [more...] — Table I compression-ratio matrix\n"
      "  run      f.bit [--mhz F] [--csv trace.csv] — one reconfiguration\n"
      "  inject   f.bit — reconfigure under injected faults with recovery\n"
      "           [--site NAME] [--rate R] [--after N] [--burst N]\n"
      "           [--max-fires N] [--param P] [--seed S] [--mhz F]\n"
      "  sweep    f.bit — bandwidth/energy across CLK_2 frequencies\n"
      "  lint     f.bit|f.uparc [--json] [--model] [--device v5|v6]\n"
      "           --isolation [--devices N] [--regions N] [--modules N]\n"
      "           [--seed S] [--json] — shard-isolation audit (iso.* rules)\n"
      "           over a serving fleet; no input file needed\n"
      "  verify-determinism  run a seeded scenario twice, byte-diff every\n"
      "           artifact (journal/metrics/trace/health); exits non-zero\n"
      "           on any divergence (rule det.replay.divergence); burst\n"
      "           runs inline clock edges against one event per edge\n"
      "           [--scenario serve|soak|crash|burst|all] [--seeds N] [--seed S]\n"
      "           [--requests N] [--txns N] [--devices N] [--json]\n"
      "  trace    f.bit [--out trace.json] [--mhz F] [--metrics] [--json]\n"
      "           [--scrub-rounds N] [--seed S]\n"
      "           — traced reconfiguration: Chrome trace_event JSON\n"
      "           (load in ui.perfetto.dev or chrome://tracing) plus\n"
      "           per-category busy time/energy; --metrics dumps the\n"
      "           metrics registry (text, or JSON with --json);\n"
      "           --scrub-rounds injects SEUs and scrubs between dumps\n"
      "  soak     chaos soak: randomized transactional reconfigurations\n"
      "           under full-rate fault injection with invariant checks\n"
      "           [--txns N] [--seed S] [--regions N] [--modules N]\n"
      "           [--module-kb N] [--rate-scale X] [--cache 0|1]\n"
      "           [--trace f.json] [--journal f.json] [--metrics f.json]\n"
      "           [--json] — exits non-zero on any invariant violation\n"
      "  serve    multi-tenant serving soak: admission control, EDF queues,\n"
      "           device failover and load shedding at a multiple of the\n"
      "           fleet's rated capacity, with per-request invariants\n"
      "           [--requests N] [--rate X] [--devices N] [--regions N]\n"
      "           [--modules N] [--dist mixed|open|closed|bursty]\n"
      "           [--faults X] [--queue N] [--seed S]\n"
      "           [--restart-after N] [--metrics f.json] [--health f.json]\n"
      "           [--workers N] [--json]\n"
      "           [--telemetry-out DIR] [--telemetry-us T]\n"
      "           — exits non-zero on any invariant violation, 2 on an\n"
      "           unknown --dist; --json reports controller restarts;\n"
      "           --workers N runs the fleet's barrier epochs on N threads,\n"
      "           the calling one included (0 = 1; byte-identical\n"
      "           artifacts for any N);\n"
      "           --telemetry-out writes telemetry.json/.csv, alerts.json\n"
      "           and the flight-recorder dump (flight.json) into DIR\n"
      "  slo      serve soak with telemetry + SLO burn-rate alerting:\n"
      "           declarative objectives over sliding windows, fast+slow\n"
      "           burn windows with hysteresis, deterministic alert log\n"
      "           [--requests N] [--rate X] [--faults X] [--seed S]\n"
      "           [--workers N] [--telemetry-us T] [--slo-file f.slo] [--out DIR]\n"
      "           [--expect-clean] [--expect-transition] [--json]\n"
      "           — --expect-clean fails if any alert fires;\n"
      "           --expect-transition fails without a fire->resolve pair\n"
      "  wal      f.wal [--json] — dump and lint a write-ahead log: every\n"
      "           decodable record, the tail classification (clean/torn/\n"
      "           corrupt) and the wal.* rule findings; exits non-zero on\n"
      "           any damage (torn tails need recovery, mid-log holes are\n"
      "           media loss)\n"
      "  crash-soak  crash-restart chaos soak: replay a deterministic\n"
      "           workload, killing the controller at every reachable WAL\n"
      "           record boundary (x every tail-corruption mode), recover\n"
      "           cold from the surviving log + fabric and assert the\n"
      "           crash-consistency invariants\n"
      "           [--ops N] [--seed S] [--regions N] [--modules N]\n"
      "           [--module-kb N] [--rate-scale X] [--stride N]\n"
      "           [--max-points N] [--corruptions 0|1] [--json]\n"
      "           [--wal-out f.wal] [--recovery-out f.json]\n"
      "           [--sweep-out f.log] — exits non-zero on any violation;\n"
      "           --wal-out writes the reference run's log, which wal reads\n"
      "  cache-stats  repeated-load workload through the bitstream cache:\n"
      "           hit/miss/eviction/relocation counts per tier and the\n"
      "           latency comparison against a cache-less controller\n"
      "           [--loads N] [--modules N] [--regions N] [--module-kb N]\n"
      "           [--hot-slots N] [--policy lru|energy] [--seed S] [--json]\n"
      "  help     show this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  Args args = parse_args(argc, argv, 2);
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }
  // Bad option values (a malformed number, an unknown --dist, an impossible
  // fleet shape) are usage errors, not aborts.
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "compress") return cmd_compress(args);
    if (cmd == "ratios") return cmd_ratios(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "inject") return cmd_inject(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "soak") return cmd_soak(args);
    if (cmd == "wal") return cmd_wal(args);
    if (cmd == "crash-soak") return cmd_crash_soak(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "slo") return cmd_slo(args);
    if (cmd == "cache-stats") return cmd_cache_stats(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "verify-determinism") return cmd_verify_determinism(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "uparc_cli %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "uparc_cli: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return 2;
}
