// Metrics registry: counters, gauges, fixed-bucket histograms and
// throughput meters, rendered as stable text or JSON reports.
//
// This is the simulator's one counter system: one registry per
// Simulation, names namespaced by module
// ("uparc.preloader.words", "icap.frames", ...). Instruments are created
// on first use and the returned references stay valid for the registry's
// lifetime (node-stable map), so hot paths cache the pointer once and pay
// a single double-add per event afterwards.
//
// Depends only on common/ so it can sit below the sim kernel (the kernel
// owns the registry the way it owns the Topology).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace uparc::obs {

/// One `key=value` metric label. Labels distinguish instruments that share
/// a base name across a fleet ({device, tenant, qos_class}, ...).
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label& a, const Label& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// Escapes a label key or value for embedding in a metric name: backslash,
/// double quote, braces, comma, equals and control characters are encoded
/// so the rendered name round-trips through text and JSON reports.
[[nodiscard]] std::string label_escape(const std::string& s);
/// Inverse of label_escape.
[[nodiscard]] std::string label_unescape(const std::string& s);

/// Canonical labeled metric name: `base{k1="v1",k2="v2"}` with the labels
/// sorted by key (duplicate keys keep last-wins) and values escaped. The
/// same label set always renders the same name regardless of insertion
/// order, which keeps Registry reports deterministic.
[[nodiscard]] std::string labeled_name(const std::string& base, std::vector<Label> labels);

/// Splits a canonical labeled name back into base + labels. Names without
/// a label suffix return an empty label vector; a malformed suffix is
/// treated as part of the base name (never throws).
struct ParsedName {
  std::string base;
  std::vector<Label> labels;

  /// Value of `key`, or an empty string when absent.
  [[nodiscard]] std::string value_of(const std::string& key) const;
  /// Canonical name with the `key` label removed (for cross-device merges).
  [[nodiscard]] std::string without(const std::string& key) const;
};
[[nodiscard]] ParsedName parse_labeled_name(const std::string& name);

/// Monotonically increasing sum of deltas.
class Counter {
 public:
  void add(double delta = 1.0) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins sampled value.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with interpolated percentile estimates.
///
/// Buckets are (prev_bound, bound] plus a final overflow bucket; bounds
/// must be strictly increasing. Percentiles interpolate linearly within
/// the target bucket, clamped to the observed [min, max] — so an empty
/// histogram reports 0, a single sample reports that sample exactly, and
/// a saturated overflow bucket reports the observed maximum rather than
/// inventing mass beyond it.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = default_bounds());

  void observe(double value);

  [[nodiscard]] u64 count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Interpolated percentile, p in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<u64>& bucket_counts() const noexcept { return counts_; }

  /// 1, 2, 4, ... 2^20 — a decade-spanning default for cycle/word counts.
  [[nodiscard]] static std::vector<double> default_bounds();
  /// 1-2-5 ladder from 1 µs to 10 s — for request latencies observed in
  /// microseconds, dense enough for meaningful p99 interpolation.
  [[nodiscard]] static std::vector<double> latency_bounds_us();

 private:
  std::vector<double> bounds_;
  std::vector<u64> counts_;
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Throughput meter: an amount accumulated over a simulated-time window.
class Meter {
 public:
  /// Credits `amount` (bytes, words, ...) at simulated time `at`.
  void add(double amount, TimePs at);

  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] TimePs first() const noexcept { return first_; }
  [[nodiscard]] TimePs last() const noexcept { return last_; }
  /// Mean rate over the observed window (0 when the window is empty).
  [[nodiscard]] double per_second() const;

 private:
  double total_ = 0.0;
  TimePs first_{};
  TimePs last_{};
  bool seen_ = false;
};

/// Name → instrument registry with stable (sorted) reports.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds = Histogram::default_bounds());
  [[nodiscard]] Meter& meter(const std::string& name) { return meters_[name]; }

  [[nodiscard]] bool has_counter(const std::string& name) const {
    return counters_.count(name) != 0;
  }
  [[nodiscard]] double counter_value(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, Meter>& meters() const noexcept { return meters_; }

  /// Multi-line "name = value" report (histograms add count/mean/p50/p95/p99).
  [[nodiscard]] std::string render_text() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "meters":{...}}.
  [[nodiscard]] std::string render_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Meter> meters_;
};

/// Minimal JSON string escaper shared by the obs exporters.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace uparc::obs
