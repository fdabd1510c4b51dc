#include "analysis/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bitstream/generator.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"

namespace uparc::analysis {
namespace {

/// Nearest JSON object key ("...": ) at or before `pos` in `text`. Returns
/// an empty string when the prefix holds no key (non-JSON artifacts).
[[nodiscard]] std::string nearest_key(std::string_view text, std::size_t pos) {
  std::string last;
  bool in_str = false;
  std::string cur;
  const std::size_t end = std::min(pos, text.size());
  for (std::size_t i = 0; i < end; ++i) {
    const char c = text[i];
    if (in_str) {
      if (c == '\\') {
        if (i + 1 < end) cur += text[++i];
      } else if (c == '"') {
        in_str = false;
        // A string is a key iff the next non-space char is ':'.
        std::size_t j = i + 1;
        while (j < text.size() && (text[j] == ' ' || text[j] == '\n' || text[j] == '\t')) ++j;
        if (j < text.size() && text[j] == ':') last = cur;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_str = true;
      cur.clear();
    }
  }
  return last;
}

[[nodiscard]] std::string excerpt(std::string_view text, std::size_t pos) {
  const std::size_t begin = pos >= 12 ? pos - 12 : 0;
  std::string out;
  for (char c : text.substr(begin, std::min<std::size_t>(32, text.size() - begin))) {
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

[[nodiscard]] std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(std::min(pos, text.size())), '\n'));
}

}  // namespace

void diff_artifact(std::string_view name, std::string_view run1,
                   std::string_view run2, Report& report) {
  const std::size_t common = std::min(run1.size(), run2.size());
  std::size_t pos = 0;
  while (pos < common && run1[pos] == run2[pos]) ++pos;
  if (pos == common && run1.size() == run2.size()) return;

  const std::string key = nearest_key(run1, pos);
  std::string msg = "replay diverges at byte " + std::to_string(pos);
  if (!key.empty()) msg += " (near key \"" + key + "\")";
  if (pos == common) {
    msg += ": run1 is " + std::to_string(run1.size()) + " bytes, run2 " +
           std::to_string(run2.size());
  } else {
    msg += ": run1 \"..." + excerpt(run1, pos) + "\" vs run2 \"..." +
           excerpt(run2, pos) + "\"";
  }
  report.error("det.replay.divergence", Location::file(std::string(name), line_of(run1, pos)),
               std::move(msg),
               "the scenario read state that survives between runs: look for mutable "
               "globals, address-ordered iteration, or wall-clock reads feeding this key");
}

std::string ReplayResult::summary() const {
  std::string out = scenario + " seed " + std::to_string(seed) + ": ";
  if (identical()) {
    out += std::to_string(artifacts.size()) + " artifacts byte-identical";
  } else {
    out += std::to_string(report.error_count()) + " divergence(s); first: " +
           report.diagnostics().front().location.describe() + " " +
           report.diagnostics().front().message;
  }
  return out;
}

namespace {

/// Diffs the seven serve artifacts of two soaks, named `prefix` + file.
void diff_serve_artifacts(const std::string& prefix, const serve::ServeSoakReport& a,
                          const serve::ServeSoakReport& b, ReplayResult& result) {
  const auto diff = [&](const char* name, std::string_view run1, std::string_view run2) {
    result.artifacts.push_back(prefix + name);
    diff_artifact(result.artifacts.back(), run1, run2, result.report);
  };
  diff("metrics.json", a.metrics_json, b.metrics_json);
  diff("health.json", a.health_json, b.health_json);
  diff("summary.txt", a.summary(), b.summary());
  diff("telemetry.json", a.telemetry_json, b.telemetry_json);
  diff("telemetry.csv", a.telemetry_csv, b.telemetry_csv);
  diff("alerts.json", a.alerts_json, b.alerts_json);
  diff("flight.json", a.flight_json, b.flight_json);
}

}  // namespace

ReplayResult verify_serve_replay(serve::ServeSoakConfig config) {
  // The observability surfaces are part of the determinism contract:
  // telemetry rings, the alert log and the flight-recorder post-mortem
  // must replay byte-for-byte along with the metrics.
  if (config.telemetry_interval.ps() == 0) {
    config.telemetry_interval = TimePs::from_us(250);
  }
  ReplayResult result;
  result.scenario = "serve";
  result.seed = config.seed;
  const serve::ServeSoakReport a = serve::run_soak(config);
  const serve::ServeSoakReport b = serve::run_soak(config);
  diff_serve_artifacts("serve/", a, b, result);
  return result;
}

ReplayResult verify_parallel_replay(serve::ServeSoakConfig config) {
  // Worker-count invariance for the sharded executor: the SAME scenario
  // inline (0 workers) and on 4 workers must produce artifacts
  // byte-identical to the 1-worker run. This is a stronger claim than
  // run-to-run replay — it proves thread scheduling never reaches
  // simulated results.
  if (config.telemetry_interval.ps() == 0) {
    config.telemetry_interval = TimePs::from_us(250);
  }
  ReplayResult result;
  result.scenario = "serve-parallel";
  result.seed = config.seed;
  config.workers = 1;
  const serve::ServeSoakReport reference = serve::run_soak(config);
  for (const unsigned workers : {0u, 4u}) {
    config.workers = workers;
    diff_serve_artifacts("serve-parallel/w" + std::to_string(workers) + "/", reference,
                         serve::run_soak(config), result);
  }
  return result;
}

namespace {

/// What one burst-oracle scenario run leaves behind.
struct BurstRun {
  std::string trace;
  std::string metrics;
  std::string rail;
  std::string result;
  u64 events = 0;
  u64 inlined = 0;
  u64 bursts = 0;
};

[[nodiscard]] std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[nodiscard]] std::string describe(const ctrl::ReconfigResult& r) {
  return "success=" + std::to_string(r.success) + " start=" + std::to_string(r.start.ps()) +
         " duration=" + std::to_string(r.duration().ps()) + " energy_uj=" + exact(r.energy_uj) +
         " bytes=" + std::to_string(r.payload_bytes) + " error=" + r.error + "\n";
}

/// Collects the artifacts of a finished scenario from its System.
[[nodiscard]] BurstRun capture(core::System& sys, std::string result) {
  BurstRun run;
  run.result = std::move(result);
  run.trace = sys.trace_json();
  run.metrics = sys.metrics().render_json();
  for (const power::RailStep& step : sys.rail()->steps()) {
    run.rail += std::to_string(step.time.ps()) + " " + exact(step.total_mw) + "\n";
  }
  run.events = sys.sim().events_executed();
  run.inlined = sys.sim().inlined_edges();
  run.bursts = sys.sim().burst_edges();
  return run;
}

[[nodiscard]] bits::PartialBitstream burst_image(u64 seed, std::size_t bytes,
                                                 bits::Device device = bits::kVirtex5Sx50t) {
  bits::GeneratorConfig cfg;
  cfg.device = device;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  return bits::Generator(cfg).generate();
}

[[nodiscard]] core::SystemConfig traced(core::SystemConfig cfg = {}) {
  cfg.trace = true;
  return cfg;
}

/// Stages `bs` and reconfigures it at `mhz` on a traced System.
[[nodiscard]] BurstRun plain_reconfig(const core::SystemConfig& cfg, double mhz,
                                      const bits::PartialBitstream& bs, bool inline_edges) {
  core::System sys(traced(cfg));
  sys.sim().set_inline_edges(inline_edges);
  std::string result;
  if (mhz > 0.0) result += sys.set_frequency_blocking(Frequency::mhz(mhz)) ? "" : "no-lock ";
  const Status staged = sys.stage(bs);
  result += staged.ok() ? describe(sys.reconfigure_blocking()) : "stage failed\n";
  return capture(sys, std::move(result));
}

/// Recovery under a spontaneous DCM lock loss in the middle of the first
/// attempt's stream (the watchdog ends it), an ICAP abort in the second and
/// a corrupted BRAM burst in the third; the fourth attempt completes.
[[nodiscard]] BurstRun faulted_recovery(u64 seed, const bits::PartialBitstream& bs,
                                        bool inline_edges) {
  TimePs mid{};
  {
    core::System clean;
    clean.sim().set_inline_edges(inline_edges);
    const manager::RecoveryOutcome out = clean.run_recovery_blocking(bs);
    if (!out.history.empty()) {
      const ctrl::ReconfigResult& first = out.history.front().result;
      mid = first.start + TimePs((first.end - first.start).ps() / 2);
    }
  }
  core::System sys(traced());
  sys.sim().set_inline_edges(inline_edges);
  fault::FaultPlan plan;
  plan.seed = seed;
  const u64 reads_per_attempt = static_cast<u64>(bs.body.size()) + 1;
  plan.arm(fault::FaultSite::kBramRead,
           {.rate = 1.0, .after = reads_per_attempt * 6 / 5, .burst = 8, .max_fires = 1});
  plan.arm(fault::FaultSite::kIcapAbort,
           {.rate = 1.0, .after = reads_per_attempt, .max_fires = 1});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm(sys.uparc(), sys.icap());
  inj.schedule_lock_loss(sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig), mid);
  const manager::RecoveryOutcome out = sys.run_recovery_blocking(bs);
  std::string result = "success=" + std::to_string(out.success) +
                       " attempts=" + std::to_string(out.attempts) +
                       " watchdog=" + std::to_string(out.watchdog_fires) +
                       " duration=" + std::to_string((out.end - out.start).ps()) +
                       " energy_uj=" + exact(out.energy_uj) +
                       " recovery_uj=" + exact(out.recovery_energy_uj) + "\n";
  for (const manager::AttemptRecord& a : out.history) result += describe(a.result);
  return capture(sys, std::move(result));
}

/// Two journaled loads of one image on a cached controller (a miss, then a
/// hit), each readback-verified before commit.
[[nodiscard]] BurstRun cached_txn(const bits::PartialBitstream& bs, bool inline_edges) {
  core::SystemConfig cfg;
  cfg.with_cache = true;
  core::System sys(traced(cfg));
  sys.sim().set_inline_edges(inline_edges);
  std::string result;
  for (int load = 0; load < 2; ++load) {
    const txn::TxnOutcome out = sys.run_transaction_blocking("r0", "m0", bs);
    result += "committed=" + std::to_string(out.committed) +
              " tier=" + std::to_string(static_cast<int>(out.stage_cache_tier)) +
              " verify_runs=" + std::to_string(out.verify_runs) +
              " duration=" + std::to_string((out.end - out.start).ps()) +
              " energy_uj=" + exact(out.energy_uj) + "\n";
  }
  return capture(sys, std::move(result));
}

}  // namespace

ReplayResult verify_burst_replay(u64 seed) {
  ReplayResult result;
  result.scenario = "burst";
  result.seed = seed;

  struct Scenario {
    std::string name;
    std::function<BurstRun(bool)> run;
    bool streams_in_bursts = false;  ///< an uncompressed, untapped stream
  };
  const bits::PartialBitstream big = burst_image(seed, 247 * 1024);
  core::SystemConfig v6;
  v6.uparc.device = bits::kVirtex6Lx240t;
  const bits::PartialBitstream fig7 =
      burst_image(seed, 216 * 1024 + 512, bits::kVirtex6Lx240t);
  const bits::PartialBitstream compressed = burst_image(seed, 500 * 1024);
  const bits::PartialBitstream small = burst_image(seed, 64 * 1024);

  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"247kb", [&](bool on) { return plain_reconfig({}, 362.5, big, on); }, true});
  for (const double mhz : {50.0, 100.0, 200.0, 300.0}) {
    scenarios.push_back({"fig7-" + std::to_string(static_cast<int>(mhz)) + "mhz",
                         [&, mhz](bool on) { return plain_reconfig(v6, mhz, fig7, on); },
                         true});
  }
  scenarios.push_back(
      {"compressed-500kb", [&](bool on) { return plain_reconfig({}, 0.0, compressed, on); }});
  scenarios.push_back(
      {"faulted-recovery", [&](bool on) { return faulted_recovery(seed, small, on); }});
  scenarios.push_back({"cached-txn", [&](bool on) { return cached_txn(small, on); }});

  for (const Scenario& sc : scenarios) {
    const BurstRun inl = sc.run(true);
    const BurstRun ref = sc.run(false);
    const std::string base = "burst/" + sc.name + "/";
    const auto diff = [&](const std::string& what, const std::string& a, const std::string& b) {
      result.artifacts.push_back(base + what);
      diff_artifact(result.artifacts.back(), a, b, result.report);
    };
    diff("trace.json", inl.trace, ref.trace);
    diff("metrics.json", inl.metrics, ref.metrics);
    diff("rail.txt", inl.rail, ref.rail);
    diff("result.txt", inl.result, ref.result);
    // Every inlined edge stands for exactly one reference-path event.
    diff("events.txt", std::to_string(inl.events + inl.inlined) + "\n",
         std::to_string(ref.events) + "\n");
    if (inl.inlined == 0 || ref.inlined != 0) {
      result.report.error("det.replay.divergence", Location::file(base + "events.txt", 1),
                          "inline edges were not exercised: " + std::to_string(inl.inlined) +
                              " inlined with inlining on, " + std::to_string(ref.inlined) +
                              " with it off",
                          "the oracle compares the two clock paths only if both ran");
    }
    // Bursts are inlined edges too: none without inlining, and the
    // uncompressed streams must take them.
    if (ref.bursts != 0 || (sc.streams_in_bursts && inl.bursts == 0)) {
      result.report.error("det.replay.divergence", Location::file(base + "events.txt", 1),
                          "bursts were not exercised: " + std::to_string(inl.bursts) +
                              " burst edges with inlining on, " + std::to_string(ref.bursts) +
                              " with it off",
                          "the oracle compares the burst datapath only if it ran");
    }
  }
  return result;
}

ReplayResult verify_txn_replay(txn::SoakConfig config) {
  config.trace = true;  // the event trace is the highest-resolution artifact
  ReplayResult result;
  result.scenario = "soak";
  result.seed = config.seed;
  const txn::SoakReport a = txn::run_soak(config);
  const txn::SoakReport b = txn::run_soak(config);
  result.artifacts = {"soak/journal.json", "soak/metrics.json", "soak/trace.json",
                      "soak/summary.txt"};
  diff_artifact(result.artifacts[0], a.journal_json, b.journal_json, result.report);
  diff_artifact(result.artifacts[1], a.metrics_json, b.metrics_json, result.report);
  diff_artifact(result.artifacts[2], a.trace_json, b.trace_json, result.report);
  diff_artifact(result.artifacts[3], a.summary(), b.summary(), result.report);
  return result;
}

ReplayResult verify_crash_replay(txn::CrashSoakConfig config) {
  ReplayResult result;
  result.scenario = "crash";
  result.seed = config.seed;
  const txn::CrashSoakReport a = txn::run_crash_soak(config);
  const txn::CrashSoakReport b = txn::run_crash_soak(config);
  result.artifacts = {"crash/reference_wal.json", "crash/sweep.log", "crash/recovery.json",
                      "crash/summary.txt"};
  diff_artifact(result.artifacts[0], a.reference_wal_json, b.reference_wal_json,
                result.report);
  diff_artifact(result.artifacts[1], a.sweep_log, b.sweep_log, result.report);
  diff_artifact(result.artifacts[2], a.last_recovery_json, b.last_recovery_json,
                result.report);
  diff_artifact(result.artifacts[3], a.summary(), b.summary(), result.report);
  return result;
}

}  // namespace uparc::analysis
