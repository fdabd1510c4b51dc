#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace uparc::obs {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_us(TimePs t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", t.us());
  return buf;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Finds `needle` (a comma or closing paren) at top level: outside label
/// braces and quoted label values. Series names embed `,` and `)` freely
/// inside quotes, so a naive find() would split them apart.
std::size_t find_top_level(const std::string& s, std::size_t from, char needle) {
  int depth = 0;
  bool quoted = false;
  for (std::size_t i = from; i < s.size(); ++i) {
    const char c = s[i];
    if (quoted) {
      if (c == '\\') {
        ++i;  // escape pair inside a label value
      } else if (c == '"') {
        quoted = false;
      }
      continue;
    }
    if (c == '"') {
      quoted = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (depth > 0) --depth;
    } else if (c == needle && depth == 0) {
      return i;
    }
  }
  return std::string::npos;
}

bool parse_number(const std::string& s, double* out) {
  const std::string t = trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(t.c_str(), &end);
  return end == t.c_str() + t.size();
}

/// Last sample at or before `t`; nullptr when the series starts after `t`.
const TelemetrySample* at_or_before(const SeriesRing& ring, TimePs t) {
  for (std::size_t i = ring.size(); i-- > 0;) {
    if (ring.at(i).t <= t) return &ring.at(i);
  }
  return nullptr;
}

const HistogramPoint* hist_at_or_before(const HistogramRing& ring, TimePs t) {
  for (std::size_t i = ring.size(); i-- > 0;) {
    if (ring.at(i).t <= t) return &ring.at(i);
  }
  return nullptr;
}

}  // namespace

std::string SloObjective::spec() const {
  std::string out = name + ": ";
  switch (kind) {
    case SloKind::kLatency:
      out += "hist(" + series + ") p" + fmt_double(percentile);
      break;
    case SloKind::kRatio:
      out += "ratio(" + series + ", " + denominator + ")";
      break;
    case SloKind::kValue:
      out += "value(" + series + ")";
      break;
  }
  out += std::string(" ") + (cmp == SloCmp::kLe ? "<=" : ">=") + " " + fmt_double(threshold);
  if (budget != 0.0) out += " budget=" + fmt_double(budget);
  return out;
}

Result<SloObjective> parse_objective(const std::string& line) {
  SloObjective o;
  const std::size_t colon = find_top_level(line, 0, ':');
  if (colon == std::string::npos) {
    return make_error("slo: missing ':' after objective name: " + line, ErrorCause::kBadInput);
  }
  o.name = trim(line.substr(0, colon));
  if (o.name.empty()) {
    return make_error("slo: empty objective name: " + line, ErrorCause::kBadInput);
  }

  std::string rest = trim(line.substr(colon + 1));
  std::size_t open;
  if (rest.rfind("hist(", 0) == 0) {
    o.kind = SloKind::kLatency;
    open = 5;
  } else if (rest.rfind("ratio(", 0) == 0) {
    o.kind = SloKind::kRatio;
    open = 6;
  } else if (rest.rfind("value(", 0) == 0) {
    o.kind = SloKind::kValue;
    open = 6;
  } else {
    return make_error("slo: expected hist(/ratio(/value( in: " + line, ErrorCause::kBadInput);
  }

  const std::size_t close = find_top_level(rest, open, ')');
  if (close == std::string::npos) {
    return make_error("slo: unterminated '(' in: " + line, ErrorCause::kBadInput);
  }
  const std::string args = rest.substr(open, close - open);
  if (o.kind == SloKind::kRatio) {
    const std::size_t comma = find_top_level(args, 0, ',');
    if (comma == std::string::npos) {
      return make_error("slo: ratio() needs two series: " + line, ErrorCause::kBadInput);
    }
    o.series = trim(args.substr(0, comma));
    o.denominator = trim(args.substr(comma + 1));
    if (o.series.empty() || o.denominator.empty()) {
      return make_error("slo: empty series in ratio(): " + line, ErrorCause::kBadInput);
    }
  } else {
    o.series = trim(args);
    if (o.series.empty()) {
      return make_error("slo: empty series in: " + line, ErrorCause::kBadInput);
    }
  }

  rest = trim(rest.substr(close + 1));
  if (o.kind == SloKind::kLatency) {
    if (rest.empty() || rest[0] != 'p') {
      return make_error("slo: hist() needs a percentile (p99): " + line, ErrorCause::kBadInput);
    }
    std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) sp = rest.size();
    if (!parse_number(rest.substr(1, sp - 1), &o.percentile) || o.percentile <= 0.0 ||
        o.percentile >= 100.0) {
      return make_error("slo: bad percentile in: " + line, ErrorCause::kBadInput);
    }
    rest = trim(rest.substr(std::min(sp, rest.size())));
  }

  if (rest.rfind("<=", 0) == 0) {
    o.cmp = SloCmp::kLe;
  } else if (rest.rfind(">=", 0) == 0) {
    o.cmp = SloCmp::kGe;
  } else {
    return make_error("slo: expected <= or >= in: " + line, ErrorCause::kBadInput);
  }
  rest = trim(rest.substr(2));

  std::size_t sp = rest.find(' ');
  if (sp == std::string::npos) sp = rest.size();
  if (!parse_number(rest.substr(0, sp), &o.threshold)) {
    return make_error("slo: bad threshold in: " + line, ErrorCause::kBadInput);
  }
  rest = trim(rest.substr(std::min(sp, rest.size())));

  if (rest.rfind("budget=", 0) == 0) {
    if (!parse_number(rest.substr(7), &o.budget) || o.budget <= 0.0 || o.budget > 1.0) {
      return make_error("slo: bad budget in: " + line, ErrorCause::kBadInput);
    }
    rest.clear();
  }
  if (!rest.empty()) {
    return make_error("slo: trailing garbage '" + rest + "' in: " + line, ErrorCause::kBadInput);
  }
  return o;
}

SloEngine::SloEngine(SloPolicy policy) : policy_(policy) {
  if (policy_.fast_window.ps() == 0) policy_.fast_window = TimePs(1);
  if (policy_.slow_window < policy_.fast_window) policy_.slow_window = policy_.fast_window;
  if (policy_.resolve_burn > policy_.fire_burn) policy_.resolve_burn = policy_.fire_burn;
}

void SloEngine::add_objective(SloObjective objective) {
  objectives_.push_back(std::move(objective));
  states_.emplace_back();
}

double SloEngine::window_burn(const SloObjective& o, TimePs t, TimePs window,
                              const TelemetrySampler& telemetry, double* value_out,
                              double* events_out) const {
  const TimePs start = t.ps() > window.ps() ? t - window : TimePs(0);
  *value_out = 0.0;
  *events_out = 0.0;

  switch (o.kind) {
    case SloKind::kLatency: {
      const HistogramRing* ring = telemetry.find_histogram(o.series);
      if (ring == nullptr || ring->empty()) return 0.0;
      const HistogramPoint* now = hist_at_or_before(*ring, t);
      if (now == nullptr) return 0.0;
      // No snapshot at/before the window start = the instrument appeared
      // inside the window; an empty baseline (counters start at zero) makes
      // delta() return the cumulative snapshot, which is exactly the
      // within-window mass.
      const HistogramPoint* then = hist_at_or_before(*ring, start);
      const HistogramSnapshot base = then != nullptr ? then->snap : HistogramSnapshot{};
      const std::optional<HistogramSnapshot> win = HistogramSnapshot::delta(now->snap, base);
      if (!win.has_value() || win->count == 0) return 0.0;
      *events_out = static_cast<double>(win->count);
      *value_out = win->percentile(o.percentile);
      const double above = win->count_above(o.threshold);
      const double bad = o.cmp == SloCmp::kLe ? above : static_cast<double>(win->count) - above;
      const double budget = o.budget != 0.0 ? o.budget : 1.0 - o.percentile / 100.0;
      return bad / static_cast<double>(win->count) / budget;
    }
    case SloKind::kRatio: {
      const SeriesRing* num = telemetry.find(o.series);
      const SeriesRing* den = telemetry.find(o.denominator);
      if (num == nullptr || den == nullptr || num->empty() || den->empty()) return 0.0;
      const TelemetrySample* num_now = at_or_before(*num, t);
      const TelemetrySample* den_now = at_or_before(*den, t);
      if (num_now == nullptr || den_now == nullptr) return 0.0;
      const TelemetrySample* num_then = at_or_before(*num, start);
      const TelemetrySample* den_then = at_or_before(*den, start);
      const double dn = num_now->value - (num_then != nullptr ? num_then->value : 0.0);
      const double dd = den_now->value - (den_then != nullptr ? den_then->value : 0.0);
      if (dd <= 0.0) return 0.0;
      *events_out = dd;
      const double ratio = dn / dd;
      *value_out = ratio;
      if (o.cmp == SloCmp::kGe) {
        // Availability shape: numerator is the good subset of the
        // denominator. Bad fraction = 1 - ratio, budget = 1 - target.
        const double budget = o.budget != 0.0 ? o.budget : 1.0 - o.threshold;
        if (budget <= 0.0) return ratio < o.threshold ? policy_.fire_burn * 2.0 : 0.0;
        return std::max(0.0, 1.0 - ratio) / budget;
      }
      // Limit shape (shed ratio, failure ratio): the ratio itself is the
      // bad fraction and the limit is the budget.
      const double budget = o.budget != 0.0 ? o.budget : o.threshold;
      if (budget <= 0.0) return ratio > o.threshold ? policy_.fire_burn * 2.0 : 0.0;
      return std::max(0.0, ratio) / budget;
    }
    case SloKind::kValue: {
      const SeriesRing* ring = telemetry.find(o.series);
      if (ring == nullptr || ring->empty()) return 0.0;
      double ticks = 0.0;
      double bad = 0.0;
      const TelemetrySample* latest = nullptr;
      for (std::size_t i = 0; i < ring->size(); ++i) {
        const TelemetrySample& s = ring->at(i);
        if (s.t < start || s.t > t) continue;
        ticks += 1.0;
        latest = &s;
        const bool ok = o.cmp == SloCmp::kLe ? s.value <= o.threshold : s.value >= o.threshold;
        if (!ok) bad += 1.0;
      }
      if (ticks == 0.0) return 0.0;
      *events_out = ticks;
      *value_out = latest->value;
      const double budget = o.budget != 0.0 ? o.budget : policy_.value_budget;
      return bad / ticks / budget;
    }
  }
  return 0.0;
}

SloEvaluation SloEngine::evaluate_one(const SloObjective& objective, TimePs t,
                                      const TelemetrySampler& telemetry) const {
  SloEvaluation eval;
  double fast_events = 0.0;
  double slow_events = 0.0;
  eval.fast_burn =
      window_burn(objective, t, policy_.fast_window, telemetry, &eval.value, &fast_events);
  double slow_value = 0.0;
  eval.slow_burn =
      window_burn(objective, t, policy_.slow_window, telemetry, &slow_value, &slow_events);
  // The min-events guard zeroes the burn instead of gating the transition:
  // a near-empty window carries no signal either way, so it can neither
  // fire an alert nor keep one alive (which is what lets alerts resolve
  // after traffic stops). Value objectives count ticks, not requests, and
  // every tick carries signal — no guard.
  if (objective.kind != SloKind::kValue) {
    if (fast_events < policy_.min_events) eval.fast_burn = 0.0;
    if (slow_events < policy_.min_events) eval.slow_burn = 0.0;
  }
  eval.has_data = fast_events > 0.0 || slow_events > 0.0;
  return eval;
}

void SloEngine::evaluate(TimePs t, const TelemetrySampler& telemetry) {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const SloObjective& o = objectives_[i];
    State& st = states_[i];
    const SloEvaluation eval = evaluate_one(o, t, telemetry);
    if (!st.firing) {
      if (eval.fast_burn >= policy_.fire_burn && eval.slow_burn >= policy_.fire_burn) {
        st.firing = true;
        ++fired_;
        alerts_.push_back({t, o.name, true, eval.fast_burn, eval.slow_burn, eval.value});
      }
    } else if (eval.fast_burn < policy_.resolve_burn && eval.slow_burn < policy_.resolve_burn) {
      st.firing = false;
      ++resolved_;
      alerts_.push_back({t, o.name, false, eval.fast_burn, eval.slow_burn, eval.value});
    }
  }
}

bool SloEngine::any_firing() const {
  return std::any_of(states_.begin(), states_.end(), [](const State& s) { return s.firing; });
}

bool SloEngine::is_firing(const std::string& name) const {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    if (objectives_[i].name == name) return states_[i].firing;
  }
  return false;
}

std::string SloEngine::render_json() const {
  std::string out = "{\n  \"policy\": {\"fast_window_us\": " + fmt_double(policy_.fast_window.us()) +
                    ", \"slow_window_us\": " + fmt_double(policy_.slow_window.us()) +
                    ", \"fire_burn\": " + fmt_double(policy_.fire_burn) +
                    ", \"resolve_burn\": " + fmt_double(policy_.resolve_burn) +
                    ", \"min_events\": " + fmt_double(policy_.min_events) +
                    ", \"value_budget\": " + fmt_double(policy_.value_budget) + "},\n";
  out += "  \"objectives\": [";
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    out += std::string(i == 0 ? "" : ",") + "\n    {\"name\": \"" +
           json_escape(objectives_[i].name) + "\", \"kind\": \"" +
           to_string(objectives_[i].kind) + "\", \"spec\": \"" +
           json_escape(objectives_[i].spec()) + "\", \"firing\": " +
           (states_[i].firing ? "true" : "false") + "}";
  }
  out += "\n  ],\n";
  out += "  \"fired\": " + std::to_string(fired_) +
         ",\n  \"resolved\": " + std::to_string(resolved_) + ",\n  \"alerts\": [";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const AlertEvent& a = alerts_[i];
    out += std::string(i == 0 ? "" : ",") + "\n    {\"t_us\": " + fmt_us(a.t) +
           ", \"objective\": \"" + json_escape(a.objective) + "\", \"state\": \"" +
           (a.firing ? "firing" : "resolved") + "\", \"fast_burn\": " + fmt_double(a.fast_burn) +
           ", \"slow_burn\": " + fmt_double(a.slow_burn) + ", \"value\": " + fmt_double(a.value) +
           "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace uparc::obs
