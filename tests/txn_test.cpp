// Unit tests for the transactional reconfiguration layer: journal, health
// tracking, TxnManager commit/rollback paths, and the health-aware routing
// in RegionManager.
#include <gtest/gtest.h>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/writer.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "region/region_manager.hpp"
#include "txn/transaction.hpp"

namespace uparc::txn {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed,
                               bits::FrameAddress start = {0, 0, 1, 10, 0}) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.start_address = start;
  cfg.utilization = 1.0;
  return bits::Generator(cfg).generate();
}

/// Forward path limited to two attempts so an armed abort plan exhausts it
/// quickly; rollback keeps the default envelope. The quarantine backoff is
/// stretched well past the stale-event horizon (cancelled watchdog/backoff
/// wake-ups still drain and advance sim time) so tests observe the
/// quarantined state rather than racing its expiry.
TxnPolicy tight_forward_policy() {
  TxnPolicy p;
  p.forward.max_attempts = 2;
  p.health.base_backoff = TimePs::from_ms(100);
  return p;
}

/// Abort plan that kills the next `fires` ICAP writes after `after`
/// untouched opportunities (0 = abort immediately).
fault::FaultPlan abort_plan(u64 fires, u64 seed = 9, u64 after = 0) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.arm(fault::FaultSite::kIcapAbort, {.rate = 1.0, .after = after, .max_fires = fires});
  return plan;
}

TEST(JournalTest, RecordsPhasesAndEnforcesTerminality) {
  sim::Simulation sim;
  Journal j(sim);
  const u64 id = j.begin("r0", "fft");
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(j.open_count(), 1u);
  j.advance(id, TxnPhase::kForward);
  j.advance(id, TxnPhase::kVerify);
  j.advance(id, TxnPhase::kCommitted, "verified");
  EXPECT_TRUE(j.all_terminal());
  ASSERT_NE(j.find(id), nullptr);
  EXPECT_TRUE(j.find(id)->terminal());
  EXPECT_EQ(j.find(id)->events.size(), 4u);  // begun + 3 advances

  EXPECT_THROW(j.advance(id, TxnPhase::kForward), std::logic_error);
  EXPECT_THROW(j.advance(99, TxnPhase::kForward), std::logic_error);

  const std::string json = j.render_json();
  EXPECT_NE(json.find("\"committed\""), std::string::npos);
  EXPECT_NE(json.find("\"fft\""), std::string::npos);
  EXPECT_NE(json.find("\"r0\""), std::string::npos);
}

TEST(HealthTest, QuarantineProbationAndRecovery) {
  sim::Simulation sim;
  HealthTracker ht(sim, "health");
  EXPECT_EQ(ht.state("r0"), HealthState::kHealthy);
  EXPECT_TRUE(ht.schedulable("r0"));

  ht.on_rollback("r0");
  EXPECT_EQ(ht.state("r0"), HealthState::kHealthy);  // one strike
  ht.on_rollback("r0");
  EXPECT_EQ(ht.state("r0"), HealthState::kQuarantined);
  EXPECT_FALSE(ht.schedulable("r0"));
  EXPECT_EQ(ht.quarantine_entries("r0"), 1u);
  const TimePs until = ht.quarantined_until("r0");
  EXPECT_EQ(until, ht.policy().base_backoff);

  // Backoff expiry moves the region to probation: schedulable for a trial.
  sim.schedule_at(until, [] {});
  sim.run();
  EXPECT_EQ(ht.state("r0"), HealthState::kProbation);
  EXPECT_TRUE(ht.schedulable("r0"));

  // A failed trial re-quarantines with a doubled backoff.
  ht.on_rollback("r0");
  EXPECT_EQ(ht.state("r0"), HealthState::kQuarantined);
  EXPECT_EQ(ht.quarantine_entries("r0"), 2u);
  EXPECT_EQ(ht.quarantined_until("r0") - sim.now(),
            TimePs(ht.policy().base_backoff.ps() * 2));

  // A committed trial restores full health (entries kept for backoff memory).
  sim.schedule_at(ht.quarantined_until("r0"), [] {});
  sim.run();
  EXPECT_EQ(ht.state("r0"), HealthState::kProbation);
  ht.on_commit("r0");
  EXPECT_EQ(ht.state("r0"), HealthState::kHealthy);
  EXPECT_EQ(ht.consecutive_rollbacks("r0"), 0u);
  EXPECT_EQ(ht.quarantine_entries("r0"), 2u);
}

TEST(HealthTest, FailureQuarantinesPermanently) {
  sim::Simulation sim;
  HealthTracker ht(sim, "health");
  ht.on_failure("r0");
  EXPECT_EQ(ht.state("r0"), HealthState::kQuarantined);
  sim.schedule_at(TimePs::from_ms(10'000), [] {});
  sim.run();
  EXPECT_EQ(ht.state("r0"), HealthState::kQuarantined);  // never expires
  EXPECT_FALSE(ht.schedulable("r0"));
}

TEST(HealthTest, BackoffIsCapped) {
  sim::Simulation sim;
  HealthPolicy pol;
  pol.base_backoff = TimePs::from_us(500);
  pol.max_backoff = TimePs::from_us(1200);
  HealthTracker ht(sim, "health", pol);
  for (int round = 0; round < 4; ++round) {
    ht.on_rollback("r0");
    ht.on_rollback("r0");
    const TimePs left = ht.quarantined_until("r0") - sim.now();
    EXPECT_LE(left, pol.max_backoff);
    sim.schedule_at(ht.quarantined_until("r0"), [] {});
    sim.run();
  }
  EXPECT_EQ(ht.quarantine_entries("r0"), 4u);
}

TEST(BlankBitstream, IsWellFormedAndProgramsZeroFrames) {
  const bits::FrameAddress origin{0, 0, 2, 7, 0};
  auto blank = TxnManager::make_blank_bitstream(bits::kVirtex5Sx50t, origin, 12);
  ASSERT_EQ(blank.frames.size(), 12u);
  EXPECT_EQ(blank.frames.front().address, origin);

  // Lint-clean as a serialized file.
  auto report = analysis::lint_file(bits::kVirtex5Sx50t, bits::to_file(blank));
  EXPECT_TRUE(report.clean()) << report.render_text();

  // A fresh ICAP consumes it and commits all-zero frames.
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);
  for (u32 w : blank.body) port.write_word(w);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(port.crc_ok());
  EXPECT_EQ(port.frames_committed(), 12u);
  const Words* frame = plane.read_frame(origin);
  ASSERT_NE(frame, nullptr);
  for (u32 w : *frame) EXPECT_EQ(w, 0u);
}

class TxnFixture : public ::testing::Test {
 protected:
  TxnOutcome run(const std::string& region, const std::string& module,
                 const bits::PartialBitstream& image, TxnPolicy policy = {}) {
    return sys.run_transaction_blocking(region, module, image, policy);
  }

  core::System sys;
};

TEST_F(TxnFixture, CleanTransactionCommits) {
  auto image = make_bs(16_KiB, 3);
  auto out = run("r0", "fft", image);
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.terminal, TxnPhase::kCommitted);
  EXPECT_EQ(out.rollback_rounds, 0u);
  EXPECT_GE(out.verify_runs, 1u);
  EXPECT_GT(out.end.ps(), out.start.ps());

  TxnManager* txn = sys.transactions();
  ASSERT_NE(txn, nullptr);
  EXPECT_TRUE(txn->journal().all_terminal());
  ASSERT_NE(txn->last_good("r0"), nullptr);
  EXPECT_TRUE(sys.plane().contains(image.frames));
  EXPECT_TRUE(txn->region_consistent("r0", sys.plane()));
  EXPECT_EQ(txn->health().state("r0"), HealthState::kHealthy);
}

TEST_F(TxnFixture, MidBurstAbortRollsBackToLastGood) {
  auto good = make_bs(16_KiB, 3);
  ASSERT_TRUE(run("r0", "fft", good).committed);

  // Abort mid-FDRI-burst, after some of the new module's frames have
  // already hit the plane (a genuinely torn write), for both forward
  // attempts; the rollback rounds then run with the fault exhausted.
  fault::FaultInjector inj(sys.sim(), "inj", abort_plan(2, 9, 500));
  inj.arm(sys.uparc(), sys.icap());

  auto out = run("r0", "fir", make_bs(16_KiB, 4), tight_forward_policy());
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(out.terminal, TxnPhase::kRolledBackLastGood);
  EXPECT_GE(out.rollback_rounds, 1u);
  EXPECT_FALSE(out.error.empty());

  // The region still serves the prior module — verified, not assumed.
  TxnManager* txn = sys.transactions();
  EXPECT_TRUE(sys.plane().contains(good.frames));
  EXPECT_TRUE(txn->region_consistent("r0", sys.plane()));
  ASSERT_NE(txn->last_good("r0"), nullptr);
  EXPECT_TRUE(txn->journal().all_terminal());
  EXPECT_EQ(txn->health().consecutive_rollbacks("r0"), 1u);
}

TEST_F(TxnFixture, NoPriorModuleRollsBackToBlank) {
  fault::FaultInjector inj(sys.sim(), "inj", abort_plan(2));
  inj.arm(sys.uparc(), sys.icap());

  auto image = make_bs(16_KiB, 5);
  auto out = run("r0", "fft", image, tight_forward_policy());
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(out.terminal, TxnPhase::kRolledBackBlank);

  // The whole window is verified blank: no half-programmed residue.
  TxnManager* txn = sys.transactions();
  EXPECT_EQ(txn->last_good("r0"), nullptr);
  EXPECT_TRUE(txn->region_consistent("r0", sys.plane()));
  for (const auto& f : image.frames) {
    const Words* w = sys.plane().read_frame(f.address);
    if (w == nullptr) continue;
    for (u32 word : *w) EXPECT_EQ(word, 0u);
  }
}

TEST_F(TxnFixture, RepeatedRollbacksQuarantineTheRegion) {
  auto image = make_bs(16_KiB, 6);
  for (int i = 0; i < 2; ++i) {
    fault::FaultInjector inj(sys.sim(), "inj", abort_plan(2, 20 + static_cast<u64>(i)));
    inj.arm(sys.uparc(), sys.icap());
    auto out = run("r0", "fft", image, tight_forward_policy());
    EXPECT_EQ(out.terminal, TxnPhase::kRolledBackBlank);
  }
  TxnManager* txn = sys.transactions();
  EXPECT_EQ(txn->health().state("r0"), HealthState::kQuarantined);
  EXPECT_FALSE(txn->health().schedulable("r0"));
}

TEST_F(TxnFixture, ThrowsWhileBusyAndOnEmptyImage) {
  auto image = make_bs(8_KiB, 7);
  TxnManager* txn = nullptr;
  (void)run("r0", "fft", image);  // creates the manager
  txn = sys.transactions();
  ASSERT_NE(txn, nullptr);
  EXPECT_THROW(txn->execute("r0", "x", bits::PartialBitstream{}, [](const TxnOutcome&) {}),
               std::invalid_argument);
  txn->execute("r0", "fir", image, [](const TxnOutcome&) {});
  EXPECT_TRUE(txn->busy());
  EXPECT_THROW(txn->execute("r1", "fir", image, [](const TxnOutcome&) {}),
               std::logic_error);
  sys.sim().run();
  EXPECT_FALSE(txn->busy());
}

class RoutedRegionFixture : public ::testing::Test {
 protected:
  RoutedRegionFixture() {
    region::Floorplan fp(bits::kVirtex5Sx50t);
    EXPECT_TRUE(fp.add_region("slot_a", {bits::FrameAddress{0, 0, 1, 10, 0}, 512}).ok());
    EXPECT_TRUE(fp.add_region("slot_b", {bits::FrameAddress{0, 0, 2, 10, 0}, 512}).ok());
    EXPECT_TRUE(lib.add_module("fft", make_bs(16_KiB, 5)).ok());
    EXPECT_TRUE(lib.add_module("fir", make_bs(16_KiB, 6)).ok());
    txn = std::make_unique<TxnManager>(sys.sim(), "txn", sys.uparc(), sys.icap(),
                                       sys.rail(), tight_forward_policy());
    mgr = std::make_unique<region::RegionManager>(sys.sim(), "region_mgr", std::move(fp),
                                                  lib, sys.uparc(), sys.plane());
    mgr->set_transaction_manager(txn.get());
  }

  region::LoadResult load_blocking(const std::string& module, const std::string& region) {
    std::optional<region::LoadResult> got;
    mgr->load(module, region, [&](const region::LoadResult& r) { got = r; });
    sys.sim().run();
    EXPECT_TRUE(got.has_value());
    return *got;
  }

  region::LoadResult load_any_blocking(const std::string& module) {
    std::optional<region::LoadResult> got;
    mgr->load_any(module, [&](const region::LoadResult& r) { got = r; });
    sys.sim().run();
    EXPECT_TRUE(got.has_value());
    return *got;
  }

  /// Quarantines `region_name` by forcing two rolled-back transactions.
  void quarantine(const std::string& region_name) {
    txn->policy() = tight_forward_policy();
    for (int i = 0; i < 2; ++i) {
      fault::FaultInjector inj(sys.sim(), "inj", abort_plan(2, 40 + static_cast<u64>(i)));
      inj.arm(sys.uparc(), sys.icap());
      auto r = load_blocking("fft", region_name);
      EXPECT_FALSE(r.success);
      EXPECT_TRUE(r.rolled_back);
    }
    // The taps installed by arm() hold a pointer to the injector, so the
    // disarming (empty-plan) injector must outlive every later load.
    disarm_ = std::make_unique<fault::FaultInjector>(sys.sim(), "disarm",
                                                     fault::FaultPlan{});
    disarm_->arm(sys.uparc(), sys.icap());
    txn->policy() = TxnPolicy{};
    ASSERT_EQ(txn->health().state(region_name), HealthState::kQuarantined);
  }

  core::System sys;
  region::ModuleLibrary lib;
  std::unique_ptr<TxnManager> txn;
  std::unique_ptr<region::RegionManager> mgr;
  std::unique_ptr<fault::FaultInjector> disarm_;
};

TEST_F(RoutedRegionFixture, TransactionalLoadCommitsAndRecordsOccupancy) {
  auto r = load_blocking("fft", "slot_a");
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(r.transactional);
  EXPECT_EQ(r.terminal, TxnPhase::kCommitted);
  EXPECT_EQ(mgr->occupant("slot_a"), "fft");
  EXPECT_TRUE(txn->journal().all_terminal());
}

TEST_F(RoutedRegionFixture, RollbackRestoresPreviousOccupant) {
  ASSERT_TRUE(load_blocking("fft", "slot_a").success);
  txn->policy() = tight_forward_policy();
  fault::FaultInjector inj(sys.sim(), "inj", abort_plan(2));
  inj.arm(sys.uparc(), sys.icap());
  auto r = load_blocking("fir", "slot_a");
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_EQ(r.terminal, TxnPhase::kRolledBackLastGood);
  EXPECT_EQ(mgr->occupant("slot_a"), "fft");  // old module still serves
}

TEST_F(RoutedRegionFixture, QuarantinedRegionRefusesExplicitPlacement) {
  quarantine("slot_a");
  auto r = load_blocking("fir", "slot_a");
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("quarantined"), std::string::npos);
  EXPECT_FALSE(r.placement_schedulable);
}

TEST_F(RoutedRegionFixture, RoutedLoadAvoidsQuarantinedRegion) {
  quarantine("slot_a");
  auto r = load_any_blocking("fir");
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(r.region, "slot_b");
  EXPECT_EQ(mgr->occupant("slot_b"), "fir");
}

TEST_F(RoutedRegionFixture, AllQuarantinedDegradesToSoftwareFallback) {
  quarantine("slot_a");
  quarantine("slot_b");
  auto r = load_any_blocking("fir");
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.software_fallback);
  EXPECT_EQ(mgr->software_fallbacks(), 1u);
}

TEST_F(RoutedRegionFixture, ProbationTrialRestoresHealth) {
  quarantine("slot_a");
  // Let the quarantine backoff expire, then place successfully.
  sys.sim().schedule_at(txn->health().quarantined_until("slot_a"), [] {});
  sys.sim().run();
  ASSERT_EQ(txn->health().state("slot_a"), HealthState::kProbation);
  auto r = load_blocking("fir", "slot_a");
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(txn->health().state("slot_a"), HealthState::kHealthy);
}

// Regression: the exponential backoff used to multiply a double without a
// cap, so enough consecutive quarantine entries pushed the value past u64
// range and the TimePs cast was UB — a region could come back with a
// garbage (possibly zero) backoff. The computation now saturates at
// max_backoff no matter how many entries accumulated.
TEST(HealthTrackerTest, BackoffSaturatesAfterManyQuarantineEntries) {
  sim::Simulation sim;
  HealthPolicy policy;
  policy.rollbacks_to_quarantine = 2;
  HealthTracker health(sim, "txn.health", policy);

  for (int cycle = 0; cycle < 200; ++cycle) {
    // Drive into quarantine (or fail the probation trial on later cycles).
    health.on_rollback("r0");
    if (health.state("r0") != HealthState::kQuarantined) health.on_rollback("r0");
    ASSERT_EQ(health.state("r0"), HealthState::kQuarantined);

    const TimePs until = health.quarantined_until("r0");
    ASSERT_GE(until, sim.now());
    // The granted backoff never exceeds the cap — even at entry 200, far
    // past where the unbounded multiply overflowed 64-bit picoseconds.
    EXPECT_LE(until - sim.now(), policy.max_backoff)
        << "entry " << health.quarantine_entries("r0");
    EXPECT_GT(until, sim.now()) << "backoff collapsed to zero at entry "
                                << health.quarantine_entries("r0");

    // Expire the quarantine so the next rollback is a failed probation
    // trial (which re-enters quarantine with a doubled entry count).
    sim.schedule_at(until, [] {});
    sim.run();
    ASSERT_EQ(health.state("r0"), HealthState::kProbation);
  }
  EXPECT_GE(health.quarantine_entries("r0"), 200u);
}

// Regression: remaining-quarantine time is now part of the tracker's
// JSON/metrics surface (it was only derivable from quarantined_until).
TEST(HealthTrackerTest, RemainingQuarantineExposedInJson) {
  sim::Simulation sim;
  HealthTracker health(sim, "txn.health", {});

  EXPECT_EQ(health.remaining_quarantine("r0"), TimePs{});
  health.on_rollback("r0");
  health.on_rollback("r0");
  ASSERT_EQ(health.state("r0"), HealthState::kQuarantined);

  const TimePs remaining = health.remaining_quarantine("r0");
  EXPECT_GT(remaining, TimePs{});
  EXPECT_EQ(remaining, health.quarantined_until("r0") - sim.now());

  const std::string json = health.render_json();
  EXPECT_NE(json.find("\"remaining_quarantine_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"quarantined\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"consecutive_rollbacks\":2"), std::string::npos) << json;

  // Half the backoff later, remaining has shrunk accordingly.
  sim.schedule_at(sim.now() + TimePs(remaining.ps() / 2), [] {});
  sim.run();
  const TimePs later = health.remaining_quarantine("r0");
  EXPECT_LT(later, remaining);
  EXPECT_GT(later, TimePs{});

  // Permanent quarantine reports the -1 sentinel and never expires.
  health.on_failure("r1");
  EXPECT_TRUE(health.permanently_failed("r1"));
  EXPECT_EQ(health.remaining_quarantine("r1"), TimePs(~u64{0}));
  EXPECT_NE(health.render_json().find("\"remaining_quarantine_us\":-1"),
            std::string::npos);
  EXPECT_FALSE(health.permanently_failed("r0"));
}

TEST(HealthTrackerTest, RestoredTrackerContinuesBackoffSchedule) {
  HealthPolicy pol;
  pol.rollbacks_to_quarantine = 1;
  pol.base_backoff = TimePs::from_us(100);
  pol.backoff_factor = 2.0;
  pol.max_backoff = TimePs::from_ms(50);

  sim::Simulation sim_a;
  HealthTracker a(sim_a, "h", pol);
  a.on_rollback("r0");  // quarantine entry 1: 100 us
  sim_a.schedule_at(TimePs::from_us(150), [] {});
  sim_a.run();
  a.on_rollback("r0");  // probation trial rolled back -> entry 2: 200 us
  EXPECT_EQ(a.quarantine_entries("r0"), 2u);
  a.on_failure("r1");  // permanent quarantine must survive the restore too
  const std::string snapshot = a.to_json();

  sim::Simulation sim_b;
  HealthTracker b(sim_b, "h", pol);
  b.restore_json(snapshot);
  EXPECT_EQ(b.quarantine_entries("r0"), 2u);
  EXPECT_EQ(b.consecutive_rollbacks("r0"), a.consecutive_rollbacks("r0"));
  EXPECT_EQ(b.state("r0"), HealthState::kQuarantined);
  // The deadline re-anchors on the new controller's clock but owes the
  // same remaining time.
  EXPECT_EQ(b.remaining_quarantine("r0"), a.remaining_quarantine("r0"));
  EXPECT_TRUE(b.permanently_failed("r1"));

  // Regression: the restored tracker continues the doubling schedule — the
  // next quarantine entry backs off 400 us, not the base 100 us a reset
  // tracker would give.
  sim_b.schedule_at(sim_b.now() + b.remaining_quarantine("r0") + TimePs{1}, [] {});
  sim_b.run();
  EXPECT_EQ(b.state("r0"), HealthState::kProbation);
  b.on_rollback("r0");
  EXPECT_EQ(b.quarantine_entries("r0"), 3u);
  EXPECT_EQ(b.remaining_quarantine("r0"), TimePs::from_us(400));

  EXPECT_THROW(b.restore_json("{\"nope\":1}"), std::runtime_error);
}

TEST(JournalJsonTest, RoundTripIsLosslessForAllStates) {
  sim::Simulation sim;
  Journal j(sim);

  const u64 committed = j.begin("r0", "fft");
  j.advance(committed, TxnPhase::kForward);
  j.advance(committed, TxnPhase::kVerify);
  j.advance(committed, TxnPhase::kCommitted, "verified");

  // Rollback-ladder escalation: last-good readback failed, ladder dropped
  // to blank — the event trail (with notes) must survive the round trip.
  const u64 blanked = j.begin("r1", "fir");
  j.advance(blanked, TxnPhase::kForward, "attempt 1");
  j.advance(blanked, TxnPhase::kRollback, "icap abort");
  j.advance(blanked, TxnPhase::kRollback, "last-good verify failed");
  j.advance(blanked, TxnPhase::kRolledBackBlank, "safe blank");

  const u64 lastgood = j.begin("r2", "fft");
  j.advance(lastgood, TxnPhase::kForward);
  j.advance(lastgood, TxnPhase::kRollback);
  j.advance(lastgood, TxnPhase::kRolledBackLastGood);

  const u64 failed = j.begin("r3", "iir");
  j.advance(failed, TxnPhase::kForward);
  j.advance(failed, TxnPhase::kRollback);
  j.advance(failed, TxnPhase::kFailed, "rollback budget exhausted");

  const u64 open = j.begin("r4", "fft");
  j.advance(open, TxnPhase::kForward);  // still in flight — non-terminal

  const ParsedJournal parsed = parse_journal_json(j.render_json());
  ASSERT_EQ(parsed.records.size(), j.records().size());
  EXPECT_EQ(parsed.open, j.open_count());
  EXPECT_EQ(parsed.open, 1u);
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    const TxnRecord& want = j.records()[i];
    const TxnRecord& got = parsed.records[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.region, want.region);
    EXPECT_EQ(got.module, want.module);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.opened_at, want.opened_at);
    EXPECT_EQ(got.closed_at, want.closed_at);
    EXPECT_EQ(got.terminal(), want.terminal());
    ASSERT_EQ(got.events.size(), want.events.size());
    for (std::size_t e = 0; e < want.events.size(); ++e) {
      EXPECT_EQ(got.events[e].phase, want.events[e].phase);
      EXPECT_EQ(got.events[e].at, want.events[e].at);
      EXPECT_EQ(got.events[e].note, want.events[e].note);
    }
  }

  EXPECT_THROW(parse_journal_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_journal_json("[{\"id\":1,\"phase\":\"warp\"}]"), std::runtime_error);
}

}  // namespace
}  // namespace uparc::txn
