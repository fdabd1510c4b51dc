// Unit tests for the simulation kernel: event ordering, clocks, FIFOs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>

#include "sim/clock.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"
#include "sim/module.hpp"

namespace uparc::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(TimePs(30), [&] { order.push_back(3); });
  sim.schedule_at(TimePs(10), [&] { order.push_back(1); });
  sim.schedule_at(TimePs(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ps(), 30u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, SameTimeEventsFifoOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePs(100), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(TimePs(50), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePs(10), [] {}), std::logic_error);
}

TEST(Simulation, NestedSchedulingFromActions) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(TimePs(10), [&] {
    sim.schedule_in(TimePs(5), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ps(), 15u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  // Self-rescheduling event every 10 ps.
  std::function<void()> tick = [&] {
    ++count;
    sim.schedule_in(TimePs(10), tick);
  };
  sim.schedule_at(TimePs(10), tick);
  sim.run_until(TimePs(55));
  EXPECT_EQ(count, 5);  // t = 10,20,30,40,50
  EXPECT_EQ(sim.now().ps(), 55u);
}

TEST(Simulation, EventBudgetGuardsInfiniteLoops) {
  Simulation sim;
  std::function<void()> forever = [&] { sim.schedule_in(TimePs(1), forever); };
  sim.schedule_at(TimePs(0), forever);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(Simulation, RunExactBudgetDrainDoesNotThrow) {
  // Regression: a run needing exactly max_events used to throw "budget
  // exceeded" even though the final event drained the queue.
  Simulation sim;
  int fired = 0;
  for (u64 i = 1; i <= 5; ++i) {
    sim.schedule_at(TimePs(10 * i), [&] { ++fired; });
  }
  EXPECT_NO_THROW(sim.run(5));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilExactBudgetDrainDoesNotThrow) {
  // Same off-by-one for run_until: exactly max_events inside the deadline
  // must succeed even when later events remain beyond the deadline.
  Simulation sim;
  int fired = 0;
  for (u64 i = 1; i <= 5; ++i) {
    sim.schedule_at(TimePs(10 * i), [&] { ++fired; });
  }
  sim.schedule_at(TimePs(1000), [&] { ++fired; });  // beyond the deadline
  EXPECT_NO_THROW(sim.run_until(TimePs(100), 5));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), TimePs(100));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, BudgetDiagnosticsNameTimeAndPending) {
  // Both budget exceptions carry the same shape: which entry point, the
  // budget, the simulated timestamp and the pending-event count.
  const auto check = [](const std::string& what, const char* which) {
    EXPECT_NE(what.find(which), std::string::npos) << what;
    EXPECT_NE(what.find("event budget"), std::string::npos) << what;
    EXPECT_NE(what.find("t="), std::string::npos) << what;
    EXPECT_NE(what.find("events pending"), std::string::npos) << what;
  };
  {
    Simulation sim;
    std::function<void()> forever = [&] { sim.schedule_in(TimePs(1), forever); };
    sim.schedule_at(TimePs(0), forever);
    try {
      sim.run(100);
      FAIL() << "run never hit its budget";
    } catch (const std::runtime_error& e) {
      check(e.what(), "Simulation::run ");
    }
  }
  {
    Simulation sim;
    std::function<void()> forever = [&] { sim.schedule_in(TimePs(1), forever); };
    sim.schedule_at(TimePs(0), forever);
    try {
      sim.run_until(TimePs(1000), 100);
      FAIL() << "run_until never hit its budget";
    } catch (const std::runtime_error& e) {
      check(e.what(), "Simulation::run_until ");
    }
  }
}

TEST(EventHeap, PopsInTimeThenSeqOrder) {
  // The explicit binary heap must agree with the (time, seq) order the old
  // priority_queue provided — including FIFO stability at equal times.
  EventHeap heap;
  heap.reserve(128);
  for (u64 i = 0; i < 100; ++i) {
    const u64 t = (i * 2654435761u) % 17;  // deterministic scrambled times
    heap.push(Event{TimePs(t), i, [] {}});
  }
  EXPECT_EQ(heap.size(), 100u);
  TimePs last_t{};
  u64 last_seq = 0;
  bool first = true;
  while (!heap.empty()) {
    const Event ev = heap.pop();
    if (!first) {
      EXPECT_TRUE(last_t < ev.time || (last_t == ev.time && last_seq < ev.seq))
          << "t=" << ev.time.ps() << " seq=" << ev.seq;
    }
    last_t = ev.time;
    last_seq = ev.seq;
    first = false;
  }
}

TEST(Simulation, ReserveEventsPreservesBehavior) {
  Simulation sim;
  sim.reserve_events(4096);
  std::vector<int> order;
  sim.schedule_at(TimePs(20), [&] { order.push_back(2); });
  sim.schedule_at(TimePs(10), [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulation, OwnershipHandoffCountsInTopology) {
  // The latch-reset protocol is audited via topology counters (rule
  // iso.shard.handoff): every release must pair with an adopt.
  Simulation sim;
  EXPECT_EQ(sim.topology().handoff_releases(), 0u);
  sim.release_ownership();
  sim.adopt_ownership();
  sim.release_ownership();
  sim.adopt_ownership();
  EXPECT_EQ(sim.topology().handoff_releases(), 2u);
  EXPECT_EQ(sim.topology().handoff_adopts(), 2u);
  // The kernel is usable again after the round-trip.
  int fired = 0;
  sim.schedule_at(TimePs(5), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Clock, TicksAtConfiguredPeriod) {
  Simulation sim;
  Clock clk(sim, "clk", Frequency::mhz(100));  // 10 ns period
  std::vector<u64> edge_times;
  clk.on_rising([&] {
    edge_times.push_back(sim.now().ps());
    if (edge_times.size() == 3) clk.disable();
  });
  clk.enable();
  sim.run();
  ASSERT_EQ(edge_times.size(), 3u);
  EXPECT_EQ(edge_times[0], 10'000u);
  EXPECT_EQ(edge_times[1], 20'000u);
  EXPECT_EQ(edge_times[2], 30'000u);
  EXPECT_EQ(clk.cycle_count(), 3u);
}

TEST(Clock, DisabledClockSchedulesNothing) {
  Simulation sim;
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([] { FAIL() << "disabled clock must not tick"; });
  sim.run();  // queue drains immediately
  EXPECT_EQ(clk.cycle_count(), 0u);
}

TEST(Clock, RetuneTakesEffectNextEdge) {
  Simulation sim;
  Clock clk(sim, "clk", Frequency::mhz(100));
  std::vector<u64> edges;
  clk.on_rising([&] {
    edges.push_back(sim.now().ps());
    if (edges.size() == 1) clk.set_frequency(Frequency::mhz(200));  // 5 ns
    if (edges.size() == 3) clk.disable();
  });
  clk.enable();
  sim.run();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], 10'000u);
  EXPECT_EQ(edges[1], 15'000u);  // first edge at new 5 ns period
  EXPECT_EQ(edges[2], 20'000u);
}

TEST(Clock, ActiveTimeIntegratesEnableWindows) {
  Simulation sim;
  Clock clk(sim, "clk", Frequency::mhz(100));
  int edges = 0;
  clk.on_rising([&] {
    if (++edges == 5) clk.disable();
  });
  clk.enable();
  sim.run();
  EXPECT_EQ(clk.active_time().ps(), 50'000u);

  // Re-enable later; the second window adds on top.
  sim.schedule_in(TimePs(100'000), [&] { clk.enable(); });
  edges = 0;
  sim.run();
  EXPECT_GT(clk.active_time().ps(), 50'000u);
}

TEST(Clock, TwoDomainsInterleaveDeterministically) {
  Simulation sim;
  Clock fast(sim, "fast", Frequency::mhz(200));
  Clock slow(sim, "slow", Frequency::mhz(100));
  int fast_edges = 0, slow_edges = 0;
  fast.on_rising([&] {
    if (++fast_edges == 20) fast.disable();
  });
  slow.on_rising([&] {
    if (++slow_edges == 10) slow.disable();
  });
  fast.enable();
  slow.enable();
  sim.run();
  EXPECT_EQ(fast_edges, 20);
  EXPECT_EQ(slow_edges, 10);
  EXPECT_EQ(sim.now().ps(), 100'000u);
}

// ----------------------------------------------------------- inline edges
//
// Every test below runs twice: with inline clock edges (the default) and
// with one kernel event per edge (the reference path). Both must observe
// the same edges at the same picoseconds in the same order.

class InlineEdges : public ::testing::TestWithParam<bool> {
 protected:
  InlineEdges() { sim.set_inline_edges(GetParam()); }

  /// Appends "<label>@<now>" to the log.
  void note(const std::string& label) { log.push_back(label + "@" + std::to_string(sim.now().ps())); }

  Simulation sim;
  std::vector<std::string> log;
};

TEST_P(InlineEdges, ForeignEventAtAnEdgeRunsBeforeThatEdge) {
  Clock clk(sim, "clk", Frequency::mhz(100));  // edges every 10 ns
  clk.on_rising([&] {
    note("edge");
    if (clk.cycle_count() == 2) {
      // Scheduled before edge 5's event would be: runs ahead of edge 5.
      sim.schedule_at(TimePs(50'000), [&] { note("from-edge2"); });
    }
    if (clk.cycle_count() == 6) clk.disable();
  });
  sim.schedule_at(TimePs(30'000), [&] { note("queued"); });
  // Scheduled between edges 4 and 5, after edge 5's event: runs after it.
  sim.schedule_at(TimePs(45'000), [&] {
    sim.schedule_at(TimePs(50'000), [&] { note("late"); });
  });
  clk.enable();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"edge@10000", "edge@20000", "queued@30000",
                                           "edge@30000", "edge@40000", "from-edge2@50000",
                                           "edge@50000", "late@50000", "edge@60000"}));
  EXPECT_EQ(sim.events_executed() + sim.inlined_edges(), 10u);  // 6 edges + 4 foreign
}

TEST_P(InlineEdges, HandlerEventForTheNextEdgeRunsFirst) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([&] {
    note("edge");
    if (clk.cycle_count() == 3) sim.schedule_in(clk.period(), [&] { note("next"); });
    if (clk.cycle_count() == 2) sim.schedule_in(TimePs(0), [&] { note("now"); });
    if (clk.cycle_count() == 5) clk.disable();
  });
  clk.enable();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"edge@10000", "edge@20000", "now@20000",
                                           "edge@30000", "next@40000", "edge@40000",
                                           "edge@50000"}));
  EXPECT_EQ(sim.inlined_edges() > 0, GetParam());
}

TEST_P(InlineEdges, RetuneAndGatingMidBurst) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([&] {
    note("edge");
    if (clk.cycle_count() == 2) clk.set_frequency(Frequency::mhz(200));  // 5 ns
    if (clk.cycle_count() == 4) clk.set_supplied(false);                  // DCM unlocks
    if (clk.cycle_count() == 6) clk.disable();
  });
  sim.schedule_at(TimePs(100'000), [&] { clk.set_supplied(true); });  // relocked
  clk.enable();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"edge@10000", "edge@20000", "edge@25000",
                                           "edge@30000", "edge@105000", "edge@110000"}));
  EXPECT_EQ(clk.cycle_count(), 6u);
  EXPECT_EQ(clk.active_time().ps(), 30'000u + 10'000u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed() + sim.inlined_edges(), 7u);
}

TEST_P(InlineEdges, GateCycleInOneEdgeKeepsItsScheduledTick) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([&] {
    note("edge");
    if (clk.cycle_count() == 2) {
      clk.disable();
      clk.enable();                            // schedules the next edge at +10 ns
      clk.set_frequency(Frequency::mhz(200));  // 5 ns from the edge after that
    }
    if (clk.cycle_count() == 4) clk.disable();
  });
  clk.enable();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"edge@10000", "edge@20000", "edge@30000",
                                           "edge@35000"}));
}

TEST_P(InlineEdges, RunUntilStopsExactlyAtTheDeadline) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([] {});
  clk.enable();
  sim.run_until(TimePs(50'000));  // on an edge: that edge runs
  EXPECT_EQ(sim.now(), TimePs(50'000));
  EXPECT_EQ(clk.cycle_count(), 5u);
  sim.run_until(TimePs(75'000));  // between edges
  EXPECT_EQ(sim.now(), TimePs(75'000));
  EXPECT_EQ(clk.cycle_count(), 7u);
  sim.run_until(TimePs(79'999));  // just short of the next edge
  EXPECT_EQ(clk.cycle_count(), 7u);
  sim.run_until(TimePs(80'000));
  EXPECT_EQ(clk.cycle_count(), 8u);
  EXPECT_EQ(sim.pending_events(), 1u);  // edge 9, past every deadline so far
  EXPECT_EQ(sim.events_executed() + sim.inlined_edges(), 8u);
  EXPECT_EQ(sim.inlined_edges() > 0, GetParam());
}

TEST_P(InlineEdges, FreeRunningClockStillExhaustsTheBudget) {
  {
    Clock clk(sim, "clk", Frequency::mhz(100));
    clk.on_rising([] {});
    clk.enable();
    EXPECT_THROW(sim.run(1000), std::runtime_error);
    // Inlined edges count like events: the budget stops at edge 1000.
    EXPECT_EQ(clk.cycle_count(), 1000u);
    EXPECT_EQ(sim.now(), TimePs(1000 * 10'000));
    clk.disable();
  }
  Simulation other;
  other.set_inline_edges(GetParam());
  Clock clk(other, "clk", Frequency::mhz(100));
  clk.on_rising([] {});
  clk.enable();
  EXPECT_THROW(other.run_until(TimePs::from_ms(1), 1000), std::runtime_error);
  EXPECT_EQ(clk.cycle_count(), 1000u);
  EXPECT_EQ(other.now(), TimePs(1000 * 10'000));
}

TEST_P(InlineEdges, ExactBudgetWithSelfDisablingClockDoesNotThrow) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([&] {
    if (clk.cycle_count() == 5) clk.disable();
  });
  clk.enable();
  EXPECT_NO_THROW(sim.run(5));
  EXPECT_EQ(clk.cycle_count(), 5u);
}

TEST_P(InlineEdges, StepDeliversExactlyOneEdge) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  clk.on_rising([&] { note("edge"); });
  clk.enable();
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(clk.cycle_count(), 1u);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(clk.cycle_count(), 2u);
  EXPECT_EQ(sim.now(), TimePs(20'000));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.inlined_edges(), 0u);
  EXPECT_EQ(log, (std::vector<std::string>{"edge@10000", "edge@20000"}));
}

INSTANTIATE_TEST_SUITE_P(Sim, InlineEdges, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Inline") : std::string("PerEdge");
                         });

TEST(InlineEdgesOracle, TwoDomainsInterleaveIdentically) {
  // Two unrelated periods, one retuned mid-run: the edge log and the event
  // equivalents must match between the two clock paths.
  const auto run = [](bool inline_edges) {
    Simulation sim;
    sim.set_inline_edges(inline_edges);
    std::vector<std::string> log;
    Clock fast(sim, "fast", Frequency::mhz(300));  // 3333 ps
    Clock slow(sim, "slow", Frequency::mhz(70));   // 14286 ps
    fast.on_rising([&] {
      log.push_back("f@" + std::to_string(sim.now().ps()));
      if (fast.cycle_count() == 30) fast.disable();
    });
    slow.on_rising([&] {
      log.push_back("s@" + std::to_string(sim.now().ps()));
      if (slow.cycle_count() == 3) fast.set_frequency(Frequency::mhz(125));
      if (slow.cycle_count() == 6) slow.disable();
    });
    fast.enable();
    slow.enable();
    sim.run();
    return std::pair{log, sim.events_executed() + sim.inlined_edges()};
  };
  const auto reference = run(false);
  ASSERT_EQ(reference.first.size(), 36u);
  EXPECT_EQ(run(true), reference);
}

// Bursts: a clock's only subscriber claims the following edges in one call
// (Clock::take_edges). It must get exactly the edges can_inline would have
// allowed one by one.

/// Runs a 100 MHz clock (10 ns edges) whose only subscriber asks for `want`
/// edges on its first edge, then gates the clock off. Returns the edges the
/// burst got.
u64 first_burst(Simulation& sim, u64 want, const std::function<void()>& run) {
  Clock clk(sim, "clk", Frequency::mhz(100));
  u64 got = 0;
  clk.on_rising([&] {
    if (clk.cycle_count() == 1) got = clk.take_edges(want);
    if (clk.cycle_count() >= 1 + got) clk.disable();
  });
  clk.enable();
  run();
  EXPECT_EQ(clk.cycle_count(), 1 + got);
  EXPECT_EQ(sim.burst_edges(), got);
  return got;
}

TEST(Bursts, AnEventAtEdgeKAllowsKMinusOneBurstEdges) {
  // The first edge is at 10 ns; an event queued at edge 1 + k stops the
  // burst before it, because that event was scheduled first.
  for (const u64 k : {1u, 2u, 7u}) {
    Simulation sim;
    sim.schedule_at(TimePs(10'000 * (1 + k)), [] {});
    EXPECT_EQ(first_burst(sim, 100, [&] { sim.run(); }), k - 1) << "k=" << k;
  }
  Simulation sim;
  sim.schedule_at(TimePs(10'000 * 8 + 1), [] {});  // just after edge 1 + 7
  EXPECT_EQ(first_burst(sim, 100, [&] { sim.run(); }), 7u);
}

TEST(Bursts, ARunUntilDeadlineOnAnEdgeIncludesThatEdge) {
  Simulation on_edge;
  EXPECT_EQ(first_burst(on_edge, 100, [&] { on_edge.run_until(TimePs(10'000 * 6)); }), 5u);
  Simulation before_edge;
  EXPECT_EQ(
      first_burst(before_edge, 100, [&] { before_edge.run_until(TimePs(10'000 * 6 - 1)); }),
      4u);
}

TEST(Bursts, TheEventBudgetCapsTheCount) {
  // run(6): the edge event takes one slot, the burst at most the other 5.
  Simulation sim;
  EXPECT_EQ(first_burst(sim, 100, [&] { EXPECT_NO_THROW(sim.run(6)); }), 5u);
  EXPECT_EQ(sim.events_executed() + sim.inlined_edges(), 6u);
  Simulation capped;  // and the request caps it below the budget
  EXPECT_EQ(first_burst(capped, 3, [&] { capped.run(); }), 3u);
}

TEST(Bursts, NoBurstWithoutInliningOrOutsideTheHandler) {
  Simulation sim;
  sim.set_inline_edges(false);
  EXPECT_EQ(first_burst(sim, 100, [&] { sim.run(); }), 0u);
  Simulation idle;
  Clock clk(idle, "clk", Frequency::mhz(100));
  clk.on_rising([] {});
  clk.enable();
  EXPECT_EQ(clk.take_edges(5), 0u);  // outside a tick: the next edge is pending
  EXPECT_EQ(idle.now(), TimePs(0));
}

TEST(Bursts, AClockWithTwoSubscribersNeverBursts) {
  Simulation sim;
  Clock clk(sim, "clk", Frequency::mhz(100));
  u64 first_sees = 0;
  u64 second_sees = 0;
  clk.on_rising([&] { first_sees += 1 + clk.take_edges(10); });
  clk.on_rising([&] {
    ++second_sees;
    if (clk.cycle_count() >= 40) clk.disable();
  });
  clk.enable();
  sim.run();
  EXPECT_EQ(clk.cycle_count(), 40u);
  EXPECT_EQ(first_sees, 40u);
  EXPECT_EQ(second_sees, 40u);
  EXPECT_EQ(sim.burst_edges(), 0u);
  EXPECT_EQ(sim.inlined_edges(), 39u);
}

TEST(Bursts, BurstEdgesAreInlinedEdgesAtTheSameTimes) {
  // A sole subscriber that claims up to 4 edges at a time, against foreign
  // events between edges and on them: the edges it covers, interleaved with
  // the events, the clock's cycle count and events plus inlined edges match
  // the one-event-per-edge path.
  const auto run = [](bool inline_edges) {
    Simulation sim;
    sim.set_inline_edges(inline_edges);
    Clock clk(sim, "clk", Frequency::mhz(100));
    std::vector<std::string> log;
    clk.on_rising([&] {
      log.push_back("edge@" + std::to_string(sim.now().ps()));
      const u64 got = clk.take_edges(std::min<u64>(4, 50 - clk.cycle_count()));
      for (u64 j = got; j > 0; --j) {
        log.push_back("edge@" + std::to_string(sim.now().ps() - (j - 1) * 10'000));
      }
      if (clk.cycle_count() >= 50) clk.disable();
    });
    const auto note = [&] { log.push_back("event@" + std::to_string(sim.now().ps())); };
    for (u64 t = 35'000; t < 600'000; t += 73'000) sim.schedule_at(TimePs(t), note);
    for (u64 t = 40'000; t < 600'000; t += 70'000) sim.schedule_at(TimePs(t), note);
    clk.enable();
    sim.run();
    return std::tuple{log, clk.cycle_count(), sim.events_executed() + sim.inlined_edges(),
                      sim.burst_edges() > 0};
  };
  const auto reference = run(false);
  const auto bursts = run(true);
  EXPECT_EQ(std::get<0>(bursts), std::get<0>(reference));
  EXPECT_EQ(std::get<1>(bursts), std::get<1>(reference));
  EXPECT_EQ(std::get<2>(bursts), std::get<2>(reference));
  EXPECT_TRUE(std::get<3>(bursts));
  EXPECT_FALSE(std::get<3>(reference));
}

TEST(Fifo, PushPopOrder) {
  Fifo<u32> f("f", 4);
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.pop(), 1u);
  EXPECT_EQ(f.pop(), 2u);
  EXPECT_EQ(f.pop(), 3u);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, OverflowAndUnderflowThrow) {
  Fifo<u32> f("f", 2);
  f.push(1);
  f.push(2);
  EXPECT_FALSE(f.can_push());
  EXPECT_THROW(f.push(3), std::logic_error);
  (void)f.pop();
  (void)f.pop();
  EXPECT_THROW((void)f.pop(), std::logic_error);
}

TEST(Fifo, ConservationAndHighWater) {
  Fifo<u32> f("f", 8);
  for (u32 i = 0; i < 6; ++i) f.push(i);
  for (int i = 0; i < 4; ++i) (void)f.pop();
  for (u32 i = 0; i < 3; ++i) f.push(i);
  EXPECT_EQ(f.total_pushed(), 9u);
  EXPECT_EQ(f.total_popped(), 4u);
  EXPECT_EQ(f.size(), f.total_pushed() - f.total_popped());
  EXPECT_EQ(f.max_occupancy(), 6u);
  EXPECT_THROW(Fifo<u32>("zero", 0), std::invalid_argument);
}

TEST(Module, NameAndStats) {
  Simulation sim;
  struct Dummy : Module {
    using Module::Module;
  } m(sim, "dummy");
  EXPECT_EQ(m.name(), "dummy");
}

}  // namespace
}  // namespace uparc::sim
