// Tests for the determinism & shard-isolation analysis layer: golden
// diagnostics per iso.*/det.* rule id, the clean-topology property over the
// serving fleet, the replay verifier, and the kernel owner-thread guard.
#include <gtest/gtest.h>

#include <thread>

#include "analysis/isolation_lint.hpp"
#include "analysis/replay.hpp"
#include "analysis/source_lint.hpp"
#include "core/system.hpp"
#include "serve/frontend.hpp"
#include "serve/soak.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/topology.hpp"
#include "txn/soak.hpp"

namespace uparc {
namespace {

using analysis::Diagnostic;
using analysis::Report;
using analysis::Severity;
using sim::kNoShard;
using sim::Topology;

struct Probe : sim::Module {
  Probe(sim::Simulation& sim, std::string name) : Module(sim, std::move(name)) {}
  using Module::bind_clock;
};

const Diagnostic* expect_rule(const Report& r, std::string_view rule) {
  const Diagnostic* d = r.find(rule);
  EXPECT_NE(d, nullptr) << "missing rule " << rule << "; got:\n" << r.render_text();
  return d;
}

// ---------------------------------------------------------------------------
// iso.*: golden diagnostic per rule over synthetic topologies.

TEST(IsolationLint, UnpartitionedTopologyIsImplicitlyClean) {
  sim::Simulation s;
  Probe a(s, "a");
  Probe b(s, "b");
  s.topology().declare_state_ref(&a, &b, "direct poke");  // would warn if audited
  EXPECT_FALSE(s.topology().partitioned());
  EXPECT_TRUE(analysis::lint_isolation(s).empty());
}

TEST(IsolationLint, GoldenModuleUnassigned) {
  sim::Simulation s;
  Probe a(s, "tagged");
  Probe b(s, "untagged");
  s.topology().assign_shard(&a, 0);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.module.unassigned");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.path, "untagged");
}

TEST(IsolationLint, GoldenClockMultiShard) {
  sim::Simulation s;
  sim::Clock clk(s, "clk", Frequency::mhz(100));
  Probe a(s, "a");
  Probe b(s, "b");
  a.bind_clock(clk);
  b.bind_clock(clk);
  s.topology().assign_shard_to_all(0);
  s.topology().assign_shard(&b, 1);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.clock.multi-shard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.path, "clk");
}

TEST(IsolationLint, GoldenStateCrossShard) {
  sim::Simulation s;
  Probe owner(s, "owner");
  Probe user(s, "user");
  s.topology().register_state(&owner, "owner.regfile");
  s.topology().declare_state_ref(&user, &owner, "register file");
  s.topology().assign_shard(&owner, 0);
  s.topology().assign_shard(&user, 1);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.state.cross-shard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("owner.regfile"), std::string::npos);
  // Same shard: clean.
  s.topology().assign_shard(&user, 0);
  EXPECT_FALSE(analysis::lint_isolation(s).has("iso.state.cross-shard"));
}

TEST(IsolationLint, GoldenStateUnregisteredRef) {
  sim::Simulation s;
  Probe a(s, "a");
  int mystery = 0;
  s.topology().declare_state_ref(&a, &mystery, "mystery latch");
  s.topology().assign_shard_to_all(0);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.state.unregistered");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("mystery latch"), std::string::npos);
}

TEST(IsolationLint, GoldenStateUnregisteredChannelFifo) {
  sim::Simulation s;
  Probe a(s, "a");
  Probe b(s, "b");
  s.topology().declare_channel({&a, nullptr, &b, nullptr, "a.out", true});
  s.topology().assign_shard_to_all(0);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.state.unregistered");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("a.out"), std::string::npos);
  // Registering the FIFO under its channel name clears the warning.
  int fifo_stand_in = 0;
  s.topology().register_state(&a, "a.out", &fifo_stand_in);
  EXPECT_FALSE(analysis::lint_isolation(s).has("iso.state.unregistered"));
}

TEST(IsolationLint, GoldenChannelDirectCrossShard) {
  sim::Simulation s;
  Probe a(s, "a");
  Probe b(s, "b");
  s.topology().declare_channel({&a, nullptr, &b, nullptr, "", false});
  s.topology().assign_shard(&a, 0);
  s.topology().assign_shard(&b, 1);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.channel.direct-cross-shard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.path, "a -> b");
}

TEST(IsolationLint, GoldenChannelUndeclared) {
  sim::Simulation s;
  Probe a(s, "a");
  Probe b(s, "b");
  Topology::Channel ch{&a, nullptr, &b, nullptr, "a.fifo", true};
  s.topology().declare_channel(ch);
  int fifo_stand_in = 0;
  s.topology().register_state(&a, "a.fifo", &fifo_stand_in);
  s.topology().assign_shard(&a, 0);
  s.topology().assign_shard(&b, 1);
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.channel.undeclared");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // The same FIFO declared cross_shard is the sanctioned pattern.
  sim::Simulation s2;
  Probe a2(s2, "a");
  Probe b2(s2, "b");
  Topology::Channel ok{&a2, nullptr, &b2, nullptr, "a.fifo", true, true};
  s2.topology().declare_channel(ok);
  s2.topology().register_state(&a2, "a.fifo", &fifo_stand_in);
  s2.topology().assign_shard(&a2, 0);
  s2.topology().assign_shard(&b2, 1);
  EXPECT_FALSE(analysis::lint_isolation(s2).has("iso.channel.undeclared"));
}

TEST(IsolationLint, GoldenShardHandoffUnbalanced) {
  sim::Simulation s;
  Probe a(s, "a");
  s.topology().assign_shard(&a, 0);
  s.release_ownership();  // released to nobody: no matching adopt
  Report r = analysis::lint_isolation(s);
  const Diagnostic* d = expect_rule(r, "iso.shard.handoff");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // Completing the latch-reset round trip clears the finding.
  s.adopt_ownership();
  EXPECT_FALSE(analysis::lint_isolation(s).has("iso.shard.handoff"));
}

// ---------------------------------------------------------------------------
// Property: the real stacks are partition-clean once tagged.

TEST(IsolationLint, ElaboratedSystemIsCleanAsOneShard) {
  core::SystemConfig cfg;
  cfg.with_cache = true;
  core::System sys(cfg);
  sys.sim().topology().assign_shard_to_all(0);
  EXPECT_TRUE(sys.sim().topology().partitioned());
  Report r = analysis::lint_isolation(sys.sim());
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(IsolationLint, ServingFleetIsCleanAcrossDeviceCounts) {
  for (unsigned devices : {1u, 2u, 3u}) {
    serve::FrontEndConfig cfg;
    cfg.devices = devices;
    cfg.modules = 2;
    cfg.module_kb = 4;
    serve::FrontEnd fe(cfg);
    Report r = fe.lint_isolation();
    EXPECT_TRUE(r.empty()) << devices << " devices:\n" << r.render_text();
  }
}

// ---------------------------------------------------------------------------
// det.*: golden diagnostic per source-lint rule.

TEST(SourceLint, GoldenGlobalMutable) {
  Report r = analysis::lint_source("t.cpp", "static int counter = 0;\n");
  const Diagnostic* d = expect_rule(r, "det.global.mutable");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.describe(), "t.cpp:1");
}

TEST(SourceLint, StaticConstAndFunctionsAreFine) {
  const char* ok =
      "static const int k = 1;\n"
      "static constexpr double kPi = 3.14;\n"
      "static int helper();\n"
      "int x = static_cast<int>(1.5);\n"
      "static_assert(sizeof(int) == 4);\n";
  Report r = analysis::lint_source("t.cpp", ok);
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(SourceLint, GoldenRandLibc) {
  Report r = analysis::lint_source("t.cpp", "int x = rand();\nsrand(7);\n");
  const Diagnostic* d = expect_rule(r, "det.rand.libc");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // Member calls named rand are someone else's business.
  EXPECT_TRUE(analysis::lint_source("t.cpp", "int x = gen.rand();\n").empty());
  EXPECT_TRUE(analysis::lint_source("t.cpp", "int x = prng->rand();\n").empty());
}

TEST(SourceLint, GoldenRandDevice) {
  Report r = analysis::lint_source("t.cpp", "std::random_device rd;\n");
  const Diagnostic* d = expect_rule(r, "det.rand.device");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(SourceLint, GoldenWallClock) {
  Report r = analysis::lint_source(
      "t.cpp", "auto t0 = std::chrono::system_clock::now();\ntime_t t = time(nullptr);\n");
  const Diagnostic* d = expect_rule(r, "det.time.wall-clock");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.describe(), "t.cpp:1");
  // Simulated time and members named time are fine.
  EXPECT_TRUE(analysis::lint_source("t.cpp", "auto t = sim.now();\n").empty());
  EXPECT_TRUE(analysis::lint_source("t.cpp", "auto t = event.time();\n").empty());
}

TEST(SourceLint, GoldenRngStd) {
  Report r = analysis::lint_source("t.cpp", "std::mt19937 gen(42);\n");
  const Diagnostic* d = expect_rule(r, "det.rng.std");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(SourceLint, GoldenContainerUnordered) {
  Report r = analysis::lint_source("t.cpp", "std::unordered_map<int, int> m;\n");
  const Diagnostic* d = expect_rule(r, "det.container.unordered");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(SourceLint, GoldenKeyPointer) {
  Report r = analysis::lint_source("t.cpp", "std::map<const Module*, int> shards;\n");
  const Diagnostic* d = expect_rule(r, "det.key.pointer");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_TRUE(analysis::lint_source("t.cpp", "std::map<std::string, int> m;\n").empty());
  // Pointer in the mapped type (not the key) is fine.
  EXPECT_TRUE(
      analysis::lint_source("t.cpp", "std::map<int, const Module*> m;\n").empty());
}

TEST(SourceLint, GoldenThreadRaw) {
  // Every raw threading primitive is a nondeterminism source (thread
  // scheduling orders work); only sim/parallel.* is allowlisted.
  for (const char* line :
       {"std::mutex mu;\n", "std::condition_variable cv;\n", "std::jthread t;\n",
        "std::binary_semaphore sem{0};\n", "std::thread worker(fn);\n"}) {
    Report r = analysis::lint_source("t.cpp", line);
    const Diagnostic* d = expect_rule(r, "det.thread.raw");
    ASSERT_NE(d, nullptr) << line;
    EXPECT_EQ(d->severity, Severity::kError) << line;
  }
  // std::thread::id and std::this_thread are bookkeeping, not scheduling —
  // the owner-thread guard itself must stay clean.
  EXPECT_TRUE(analysis::lint_source("t.cpp", "std::thread::id owner;\n").empty());
  EXPECT_TRUE(
      analysis::lint_source("t.cpp", "auto me = std::this_thread::get_id();\n").empty());
  // Unqualified member/field uses of the word "thread" are fine.
  EXPECT_TRUE(analysis::lint_source("t.cpp", "bool thread_guard_active();\n").empty());
  // The inline marker suppresses it like any other rule.
  EXPECT_TRUE(analysis::lint_source(
                  "t.cpp", "std::mutex mu;  // detlint:allow(det.thread.raw) barrier\n")
                  .empty());
}

TEST(SourceLint, InlineAllowSuppresses) {
  Report flagged = analysis::lint_source("t.cpp", "int x = rand();\n");
  EXPECT_FALSE(flagged.empty());
  Report allowed = analysis::lint_source(
      "t.cpp", "int x = rand();  // detlint:allow(det.rand.libc) seeding test\n");
  EXPECT_TRUE(allowed.empty()) << allowed.render_text();
  // The marker only covers the named rule.
  Report other = analysis::lint_source(
      "t.cpp", "std::random_device rd;  // detlint:allow(det.rand.libc)\n");
  EXPECT_TRUE(other.has("det.rand.device"));
}

TEST(SourceLint, CommentsAndStringsAreInvisible) {
  const char* text =
      "// calls rand() and time() all day\n"
      "/* std::random_device in prose */\n"
      "const char* s = \"rand() time(nullptr) std::mt19937\";\n";
  Report r = analysis::lint_source("t.cpp", text);
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(SourceLint, LineNumbersAnchorTheFinding) {
  Report r = analysis::lint_source("dir/f.cpp", "int a;\nint b;\nsrand(1);\n");
  const Diagnostic* d = expect_rule(r, "det.rand.libc");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->location.describe(), "dir/f.cpp:3");
}

// ---------------------------------------------------------------------------
// det.replay.divergence: artifact diffing and double-run byte-identity.

TEST(Replay, IdenticalArtifactsProduceNoDiagnostics) {
  Report r;
  analysis::diff_artifact("m.json", "{\"a\": 1}", "{\"a\": 1}", r);
  EXPECT_TRUE(r.empty());
}

TEST(Replay, GoldenDivergenceNamesNearestKey) {
  Report r;
  analysis::diff_artifact("m.json", "{\"a\": 1,\n \"b\": 2}", "{\"a\": 1,\n \"b\": 3}", r);
  const Diagnostic* d = expect_rule(r, "det.replay.divergence");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("\"b\""), std::string::npos) << d->message;
  EXPECT_EQ(d->location.describe(), "m.json:2");
}

TEST(Replay, LengthMismatchIsADivergence) {
  Report r;
  analysis::diff_artifact("m.json", "{\"a\": 1}", "{\"a\": 1}  ", r);
  EXPECT_TRUE(r.has("det.replay.divergence"));
}

TEST(Replay, TxnSoakDoubleRunIsByteIdentical) {
  txn::SoakConfig cfg;
  cfg.seed = 11;
  cfg.transactions = 60;
  analysis::ReplayResult res = analysis::verify_txn_replay(cfg);
  EXPECT_TRUE(res.identical()) << res.report.render_text();
  EXPECT_EQ(res.artifacts.size(), 4u);
}

TEST(Replay, ServeSoakDoubleRunIsByteIdentical) {
  serve::ServeSoakConfig cfg;
  cfg.seed = 5;
  cfg.requests = 150;
  cfg.modules = 2;
  analysis::ReplayResult res = analysis::verify_serve_replay(cfg);
  EXPECT_TRUE(res.identical()) << res.report.render_text();
}

TEST(Replay, InlineEdgesMatchOneEventPerEdge) {
  // Burst oracle: every System-level scenario byte-matches the reference
  // clock path, and inlined edges account for exactly the missing events.
  for (const u64 seed : {u64{3}, u64{17}}) {
    const analysis::ReplayResult res = analysis::verify_burst_replay(seed);
    EXPECT_TRUE(res.identical()) << res.report.render_text();
    EXPECT_EQ(res.scenario, "burst");
    EXPECT_EQ(res.artifacts.size(), 8u * 5u);
  }
}

TEST(Replay, ServeSoakReportFieldsMatchAcrossRuns) {
  serve::ServeSoakConfig cfg;
  cfg.seed = 9;
  cfg.requests = 120;
  cfg.modules = 2;
  const serve::ServeSoakReport a = serve::run_soak(cfg);
  const serve::ServeSoakReport b = serve::run_soak(cfg);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.health_json, b.health_json);
  EXPECT_EQ(a.summary(), b.summary());
}

// ---------------------------------------------------------------------------
// Kernel owner-thread guard.

TEST(ThreadGuard, SecondThreadAborts) {
  if (!sim::Simulation::thread_guard_active()) {
    GTEST_SKIP() << "owner-thread guard compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Simulation s;
        s.schedule_in(TimePs{}, [] {});
        std::thread t([&] { (void)s.step(); });
        t.join();
      },
      "second thread");
}

TEST(ThreadGuard, SameThreadIsUnaffected) {
  sim::Simulation s;
  int fired = 0;
  s.schedule_in(TimePs{}, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace uparc
