// SLO engine: objective grammar round-trips (label values may embed the
// grammar's own separators), multi-window burn-rate alerting with
// hysteresis (no flapping at the threshold), the min-events guard, and
// deterministic replay of the alert log.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"

namespace uparc::obs {
namespace {

// ---------------------------------------------------------------- grammar

TEST(SloGrammar, ParsesLatencyObjectiveWithLabeledSeries) {
  // The series name embeds ',' and '=' inside the label braces — the
  // parser must split on top-level separators only.
  const auto r = parse_objective(
      "guaranteed_p99: hist(serve.latency_us{device=\"fleet\",qos_class=\"guaranteed\"}) "
      "p99 <= 4184");
  ASSERT_TRUE(r.ok()) << r.error().message;
  const SloObjective& o = r.value();
  EXPECT_EQ(o.name, "guaranteed_p99");
  EXPECT_EQ(o.kind, SloKind::kLatency);
  EXPECT_EQ(o.series, "serve.latency_us{device=\"fleet\",qos_class=\"guaranteed\"}");
  EXPECT_DOUBLE_EQ(o.percentile, 99.0);
  EXPECT_EQ(o.cmp, SloCmp::kLe);
  EXPECT_DOUBLE_EQ(o.threshold, 4184.0);
}

TEST(SloGrammar, ParsesRatioAndValueObjectives) {
  const auto ratio = parse_objective(
      "goodput: ratio(serve.goodput.standard, serve.finished.standard) >= 0.9");
  ASSERT_TRUE(ratio.ok());
  EXPECT_EQ(ratio.value().kind, SloKind::kRatio);
  EXPECT_EQ(ratio.value().series, "serve.goodput.standard");
  EXPECT_EQ(ratio.value().denominator, "serve.finished.standard");
  EXPECT_EQ(ratio.value().cmp, SloCmp::kGe);

  const auto value = parse_objective("depth: value(serve.queue_depth) <= 32 budget=0.25");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value().kind, SloKind::kValue);
  EXPECT_DOUBLE_EQ(value.value().budget, 0.25);
}

TEST(SloGrammar, SpecRoundTripsThroughTheParser) {
  for (const char* line : {
           "a: hist(lat{k=\"x,y\"}) p95 <= 10",
           "b: ratio(good, total) >= 0.99",
           "c: ratio(shed, issued) <= 0.2",
           "d: value(depth) >= 1",
       }) {
    const auto first = parse_objective(line);
    ASSERT_TRUE(first.ok()) << line;
    const auto second = parse_objective(first.value().spec());
    ASSERT_TRUE(second.ok()) << first.value().spec();
    EXPECT_EQ(second.value().spec(), first.value().spec());
  }
}

TEST(SloGrammar, RejectsMalformedLines) {
  for (const char* line : {
           "",
           "no_colon hist(x) p99 <= 1",
           "a: hist(x) p99",
           "a: hist(x) pXX <= 1",
           "a: ratio(only_one) >= 0.5",
           "a: blend(x) <= 1",
           "a: value(x) == 1",
           "a: hist(x) p99 <= not_a_number",
       }) {
    EXPECT_FALSE(parse_objective(line).ok()) << "accepted: " << line;
  }
}

// ------------------------------------------------------------- burn rates

/// Telemetry + engine pair with tight windows so tests stay fast:
/// 100us ticks, fast window 200us (2 ticks), slow window 1ms (10 ticks).
struct Rig {
  Registry reg;
  TelemetrySampler sampler;
  SloEngine engine;
  u64 tick = 0;

  Rig()
      : sampler([] {
          TelemetryConfig cfg;
          cfg.interval = TimePs::from_us(100);
          return cfg;
        }()),
        engine([] {
          SloPolicy p;
          p.fast_window = TimePs::from_us(200);
          p.slow_window = TimePs::from_us(1000);
          p.min_events = 4.0;
          return p;
        }()) {
    sampler.add_source(&reg, {});
  }

  void step() {
    const TimePs t = TimePs::from_us(100.0 * static_cast<double>(++tick));
    sampler.sample(t);
    engine.evaluate(t, sampler);
  }
};

TEST(SloEngine, FiresOnSustainedBurnAndResolvesWithHysteresis) {
  Rig rig;
  auto obj = parse_objective("goodput: ratio(good, total) >= 0.9");
  ASSERT_TRUE(obj.ok());
  rig.engine.add_objective(obj.value());

  // Phase A: ratio 0.5 -> burn 5x in every window. Fires exactly once.
  for (int i = 0; i < 15; ++i) {
    rig.reg.counter("total").add(10.0);
    rig.reg.counter("good").add(5.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 1u);
  EXPECT_TRUE(rig.engine.is_firing("goodput"));

  // Phase B: ratio oscillates tightly around the 0.9 target (burn swings
  // ~0.6..1.4 across ticks). With resolve_burn at 0.5 the alert must hold
  // steady — no flapping, no new transitions.
  for (int i = 0; i < 20; ++i) {
    rig.reg.counter("total").add(100.0);
    rig.reg.counter("good").add(i % 2 == 0 ? 86.0 : 94.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 1u) << "alert flapped: refired inside the hysteresis band";
  EXPECT_EQ(rig.engine.resolved(), 0u) << "alert resolved inside the hysteresis band";
  EXPECT_TRUE(rig.engine.is_firing("goodput"));

  // Phase C: fully healthy. Once both windows drain the alert resolves —
  // exactly once.
  for (int i = 0; i < 25; ++i) {
    rig.reg.counter("total").add(100.0);
    rig.reg.counter("good").add(100.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 1u);
  EXPECT_EQ(rig.engine.resolved(), 1u);
  EXPECT_EQ(rig.engine.transitions(), 1u);
  EXPECT_FALSE(rig.engine.any_firing());

  // The log records the complete story in time order.
  ASSERT_EQ(rig.engine.alerts().size(), 2u);
  EXPECT_TRUE(rig.engine.alerts()[0].firing);
  EXPECT_FALSE(rig.engine.alerts()[1].firing);
  EXPECT_LT(rig.engine.alerts()[0].t.ps(), rig.engine.alerts()[1].t.ps());
}

TEST(SloEngine, MinEventsGuardBlocksThinWindows) {
  Rig rig;
  auto obj = parse_objective("goodput: ratio(good, total) >= 0.9");
  ASSERT_TRUE(obj.ok());
  rig.engine.add_objective(obj.value());

  // 2 events per window at ratio 0 would read as a 10x burn — but stays
  // under min_events (4), so the burn is forced to zero and nothing fires.
  for (int i = 0; i < 15; ++i) {
    rig.reg.counter("total").add(2.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 0u);
}

TEST(SloEngine, LatencyObjectiveFiresOnTailShift) {
  Rig rig;
  auto obj = parse_objective("lat_p99: hist(lat) p99 <= 100");
  ASSERT_TRUE(obj.ok());
  rig.engine.add_objective(obj.value());
  auto& h = rig.reg.histogram("lat", Histogram::latency_bounds_us());

  // Healthy tail: everything at 50us.
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 10; ++j) h.observe(50.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 0u);

  // Tail blows out: half the window mass lands at 5000us, far over the 1%
  // budget of a p99 objective.
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 5; ++j) h.observe(50.0);
    for (int j = 0; j < 5; ++j) h.observe(5000.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 1u);
  EXPECT_TRUE(rig.engine.is_firing("lat_p99"));
}

TEST(SloEngine, ValueObjectiveCountsBadTicks) {
  Rig rig;
  auto obj = parse_objective("depth: value(queue_depth) <= 5");
  ASSERT_TRUE(obj.ok());
  rig.engine.add_objective(obj.value());

  for (int i = 0; i < 12; ++i) {
    rig.reg.gauge("queue_depth").set(2.0);
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 0u);
  for (int i = 0; i < 12; ++i) {
    rig.reg.gauge("queue_depth").set(50.0);  // every tick bad: burn 1/0.5 = 2
    rig.step();
  }
  EXPECT_EQ(rig.engine.fired(), 1u);
}

TEST(SloEngine, AlertLogReplaysByteIdentically) {
  auto run = [] {
    Rig rig;
    auto obj = parse_objective("goodput: ratio(good, total) >= 0.9");
    EXPECT_TRUE(obj.ok());
    rig.engine.add_objective(obj.value());
    for (int i = 0; i < 40; ++i) {
      rig.reg.counter("total").add(10.0);
      rig.reg.counter("good").add(i < 15 ? 4.0 : 10.0);
      rig.step();
    }
    return rig.engine.render_json();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace uparc::obs
