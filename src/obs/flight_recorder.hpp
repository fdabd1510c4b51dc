// Black-box flight recorder: a bounded, always-on ring of notable events
// per shard (device), frozen into a post-mortem snapshot on first failure.
//
// Unlike the Tracer (opt-in, unbounded, meant for offline span analysis),
// the recorder is cheap enough to leave on in every run: each shard keeps
// the last N events in a fixed ring (constant memory; older events are
// overwritten and counted as dropped), and recording is one ring write.
// Per-shard rings mean one noisy device cannot evict another device's
// history — the post-mortem always has the last moments of every shard.
//
// When a failure trigger fires (a soak invariant, a transaction reaching
// kFailed, a circuit breaker opening), the recorder latches a JSON
// snapshot of every ring exactly as it was at that moment — the aviation
// black-box model: the first impact freezes the tape. Later triggers only
// increment a counter; `postmortem()` always returns the first-failure
// view. serve::FrontEnd, txn::TxnManager and the soak harness all record
// into (and trigger) the recorder; uparc_cli writes the snapshot next to
// the telemetry export.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "obs/telemetry.hpp"

namespace uparc::obs {

enum class FlightSeverity : u8 { kInfo, kWarn, kError };

[[nodiscard]] constexpr const char* to_string(FlightSeverity s) {
  switch (s) {
    case FlightSeverity::kInfo: return "info";
    case FlightSeverity::kWarn: return "warn";
    case FlightSeverity::kError: return "error";
  }
  return "unknown";
}

struct FlightEvent {
  TimePs t{};
  FlightSeverity severity = FlightSeverity::kInfo;
  std::string category;  ///< subsystem: "serve", "txn", "breaker", "soak"
  std::string name;      ///< short machine-greppable event name
  std::string detail;    ///< free-form context (tenant, cause, counts)
};

struct FlightRecorderConfig {
  /// Ring capacity per shard; memory is capacity × shards regardless of
  /// run length.
  std::size_t capacity_per_shard = 256;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  /// Appends an event to `shard`'s ring (creating the shard on first use).
  void record(const std::string& shard, FlightEvent event);
  void info(const std::string& shard, TimePs t, std::string category, std::string name,
            std::string detail = {}) {
    record(shard, {t, FlightSeverity::kInfo, std::move(category), std::move(name),
                   std::move(detail)});
  }
  void warn(const std::string& shard, TimePs t, std::string category, std::string name,
            std::string detail = {}) {
    record(shard, {t, FlightSeverity::kWarn, std::move(category), std::move(name),
                   std::move(detail)});
  }
  void error(const std::string& shard, TimePs t, std::string category, std::string name,
             std::string detail = {}) {
    record(shard, {t, FlightSeverity::kError, std::move(category), std::move(name),
                   std::move(detail)});
  }

  /// Declares a failure at sim time `t`. The first trigger freezes the
  /// post-mortem snapshot (and invokes the dump sink, if set); later
  /// triggers are only counted. Also records an error event in `shard`.
  void trigger(const std::string& shard, TimePs t, const std::string& reason);

  /// Counts a failure that was recorded elsewhere and whose events have
  /// already been copied into this recorder's rings — the serve front end
  /// records into per-device staging recorders and drains them at
  /// barrier epochs, so the "trigger" error event arrives via the event
  /// copy and only the latch/count must be replayed here. First adoption
  /// freezes the post-mortem exactly like trigger(); later ones only count.
  void adopt_trigger(const std::string& shard, TimePs t, const std::string& reason);

  /// Invoked once, at first trigger, with the frozen snapshot JSON.
  void set_dump_sink(std::function<void(const std::string& json)> sink) {
    dump_sink_ = std::move(sink);
  }

  [[nodiscard]] bool triggered() const noexcept { return triggers_ > 0; }
  [[nodiscard]] u64 triggers() const noexcept { return triggers_; }
  /// Frozen first-failure snapshot; empty string when never triggered.
  [[nodiscard]] const std::string& postmortem() const noexcept { return postmortem_; }
  /// When/where/why the tape froze (crash-soak asserts the frozen clock is
  /// consistent with the WAL tail). Meaningful only once triggered().
  [[nodiscard]] TimePs first_trigger_time() const noexcept { return first_trigger_t_; }
  [[nodiscard]] const std::string& first_trigger_shard() const noexcept {
    return first_trigger_shard_;
  }
  [[nodiscard]] const std::string& first_trigger_reason() const noexcept {
    return first_trigger_reason_;
  }

  [[nodiscard]] const FlightRecorderConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const TelemetryRing<FlightEvent>* shard(const std::string& name) const;

  /// Current state of every ring: {"triggers":N,"first_trigger":{...}|null,
  /// "shards":{"<shard>":{"dropped":N,"events":[...]}}}. Deterministic.
  [[nodiscard]] std::string render_json() const;

 private:
  FlightRecorderConfig config_;
  std::map<std::string, TelemetryRing<FlightEvent>> shards_;
  std::function<void(const std::string&)> dump_sink_;
  u64 triggers_ = 0;
  TimePs first_trigger_t_{};
  std::string first_trigger_shard_;
  std::string first_trigger_reason_;
  std::string postmortem_;
};

}  // namespace uparc::obs
