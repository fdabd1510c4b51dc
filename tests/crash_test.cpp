// Crash-consistency tests: deterministic crash-point injection, cold-start
// recovery from a WAL (committed work is reprogrammed onto a blank fabric,
// nothing is invented from an empty log, ControllerStack::recover_from
// adopts an intact fabric and continues the log), the flight-recorder
// freeze at the moment of death, and a bounded crash-restart sweep with the
// replay determinism gate on top.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "analysis/replay.hpp"
#include "fault/crash.hpp"
#include "txn/crash_soak.hpp"
#include "txn/stack.hpp"

namespace uparc::txn {
namespace {

TEST(CrashInjectorTest, PickIsDeterministicAndInRange) {
  const fault::CrashPoint a = fault::CrashInjector::pick(42, 100);
  const fault::CrashPoint b = fault::CrashInjector::pick(42, 100);
  EXPECT_EQ(a.wal_seq, b.wal_seq);
  EXPECT_EQ(a.corruption, b.corruption);
  EXPECT_GE(a.wal_seq, 1u);
  EXPECT_LE(a.wal_seq, 100u);
  bool varies = false;
  for (u64 seed = 1; seed < 16 && !varies; ++seed) {
    const fault::CrashPoint c = fault::CrashInjector::pick(seed, 100);
    varies = c.wal_seq != a.wal_seq || c.corruption != a.corruption;
  }
  EXPECT_TRUE(varies);
}

TEST(CrashInjectorTest, KillsAtTheArmedBoundaryAndFreezesFlight) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  obs::FlightRecorder flight;
  fault::CrashInjector injector({.wal_seq = 2, .corruption = WalCorruption::kTornWrite});
  injector.set_flight_recorder(&flight, "ctl");
  injector.arm(wal);

  EXPECT_EQ(wal.append(WalRecordType::kHealth, "{}"), 1u);
  EXPECT_FALSE(injector.crashed());
  try {
    wal.append(WalRecordType::kTxnBegin, "{\"txn\":1,\"region\":\"r0\"}");
    FAIL() << "crash point did not fire";
  } catch (const fault::ControllerCrash& c) {
    EXPECT_EQ(c.wal_seq, 2u);
    EXPECT_EQ(c.corruption, WalCorruption::kTornWrite);
    EXPECT_EQ(c.at, sim.now());
  }
  EXPECT_TRUE(injector.crashed());
  EXPECT_EQ(injector.crash_time(), sim.now());

  // The black box froze at the moment of death, before the throw.
  EXPECT_TRUE(flight.triggered());
  EXPECT_EQ(flight.first_trigger_reason(), "controller-crash");
  EXPECT_EQ(flight.first_trigger_time(), sim.now());
  EXPECT_FALSE(flight.postmortem().empty());

  // The corruption landed: the tail record is torn in storage.
  EXPECT_EQ(scan_wal(store.read_all()).tail, WalTailState::kTorn);
}

TEST(RecoveryTest, EmptyWalRecoversToCleanStateAndSealsNewEpoch) {
  core::SystemConfig sys_cfg;
  sys_cfg.with_cache = true;
  core::System sys(sys_cfg);
  TxnManager txn(sys.sim(), "txn", sys.uparc(), sys.icap(), sys.rail());
  MemWalStorage store;
  Wal new_wal(sys.sim(), "wal", store);

  RecoveryCoordinator coordinator(sys, txn);
  const auto resolver = [](const std::string& module, const std::string&)
      -> Result<std::shared_ptr<const bits::Image>> {
    return make_error("no image for " + module, ErrorCause::kBadInput);
  };
  const Bytes empty;
  const RecoveryReport report = coordinator.recover(empty, resolver, &new_wal);

  EXPECT_TRUE(report.ok()) << report.render_json();
  EXPECT_EQ(report.records_scanned, 0u);
  EXPECT_EQ(report.tail, WalTailState::kClean);
  EXPECT_TRUE(report.regions.empty());
  EXPECT_EQ(report.find("r0"), nullptr);
  EXPECT_FALSE(report.render_json().empty());
  // A brand-new epoch starts with a compacting checkpoint, and the manager
  // journals into the new log from here on.
  EXPECT_EQ(txn.wal(), &new_wal);
  EXPECT_GE(new_wal.checkpoints(), 1u);
  EXPECT_EQ(scan_wal(store.read_all()).records.front().type, WalRecordType::kCheckpoint);
}

/// Routes one load through `s` and returns its result.
region::LoadResult load_any(ControllerStack& s, const std::string& module) {
  std::optional<region::LoadResult> got;
  s.manager.load_any(module, [&](const region::LoadResult& r) { got = r; });
  s.system.sim().run();
  EXPECT_TRUE(got.has_value());
  return got.value_or(region::LoadResult{});
}

StackConfig wal_stack(unsigned regions) {
  StackConfig cfg;
  cfg.regions = regions;
  cfg.wal = WalPolicy{};
  return cfg;
}

TEST(RecoveryTest, ReprogramsCommittedRegionOntoBlankFabric) {
  // Controller A commits m0 into r0 with a WAL attached; then the
  // controller dies AND the fabric loses its frames (worst case: power
  // cycle). Recovery on a blank plane must classify r0 as committed,
  // notice the readback mismatch and reprogram the journaled last-good.
  const ModuleSet modules = make_module_set(core::UparcConfig{}.device, 1, 2, 77);
  ControllerStack a(modules, wal_stack(1));
  const region::LoadResult committed = load_any(a, "m0");
  ASSERT_EQ(committed.terminal, TxnPhase::kCommitted) << committed.error;
  ASSERT_EQ(committed.region, "r0");

  // Blank fabric: nothing is transplanted, so recovery runs on the log
  // alone instead of through recover_from().
  ControllerStack b(modules, wal_stack(1));
  RecoveryCoordinator coordinator(b.system, b.txn);
  const RecoveryReport report = coordinator.recover(
      a.wal_store.read_all(),
      RecoveryCoordinator::library_resolver(modules.library, b.manager.floorplan()),
      &*b.wal);

  EXPECT_TRUE(report.ok()) << report.render_json();
  const RegionRecovery* r0 = report.find("r0");
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(r0->klass, RegionClass::kCommitted);
  EXPECT_EQ(r0->module, "m0");
  EXPECT_FALSE(r0->readback_clean);  // the fabric was blank
  EXPECT_EQ(r0->action, RecoveryAction::kReprogram);
  // The recovered controller knows m0 as r0's last-good again.
  EXPECT_EQ(b.txn.last_good_module("r0"), "m0");
}

TEST(ControllerStackTest, RecoverFromAdoptsTheFabricAndContinuesTheLog) {
  // The shared cold restart: the dead stack committed two modules; a fresh
  // stack takes over its fabric and WAL and must adopt both regions as
  // they stand, without reprogramming anything.
  const ModuleSet modules = make_module_set(core::UparcConfig{}.device, 2, 2, 5);
  ControllerStack dead(modules, wal_stack(2));
  std::map<std::string, std::string> placed;
  for (const char* module : {"m0", "m1"}) {
    const region::LoadResult r = load_any(dead, module);
    ASSERT_EQ(r.terminal, TxnPhase::kCommitted) << r.error;
    placed[r.region] = module;
  }
  ASSERT_EQ(placed.size(), 2u);  // routed to both regions
  const u64 dead_last_seq = scan_wal(dead.wal_store.read_all()).last_seq();

  ControllerStack fresh(modules, wal_stack(2));
  const RecoveryReport report = fresh.recover_from(dead);
  EXPECT_TRUE(report.ok()) << report.render_json();
  ASSERT_EQ(report.regions.size(), 2u);
  for (const RegionRecovery& rr : report.regions) {
    EXPECT_EQ(rr.action, RecoveryAction::kAdopt) << rr.region;
    EXPECT_TRUE(rr.readback_clean) << rr.region;
    EXPECT_EQ(fresh.txn.last_good_module(rr.region), placed[rr.region]);
  }
  // The new log opens with a compacting checkpoint that continues the dead
  // log's seq chain.
  const WalScan scan = scan_wal(fresh.wal_store.read_all());
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records.front().type, WalRecordType::kCheckpoint);
  EXPECT_EQ(scan.records.front().seq, dead_last_seq + 1);

  // The recovered controller keeps serving.
  const region::LoadResult next = load_any(fresh, "m0");
  EXPECT_EQ(next.terminal, TxnPhase::kCommitted) << next.error;
}

TEST(CrashSoakTest, BoundedSweepHoldsCrashConsistencyInvariants) {
  CrashSoakConfig cfg;
  cfg.ops = 4;
  cfg.regions = 2;
  cfg.modules = 2;
  cfg.module_kb = 2;
  cfg.max_crash_points = 5;
  cfg.sweep_corruptions = true;
  const CrashSoakReport report = run_crash_soak(cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.reference_records, 0u);
  EXPECT_EQ(report.runs, report.crashes);  // every armed point fired
  EXPECT_GT(report.runs, 0u);
  // The artifact is the raw log, which scans clean.
  EXPECT_FALSE(report.reference_wal.empty());
  EXPECT_EQ(scan_wal(report.reference_wal).tail, WalTailState::kClean);
  EXPECT_FALSE(report.last_recovery_json.empty());
  EXPECT_FALSE(report.sweep_log.empty());
}

TEST(CrashSoakTest, ReplayIsByteIdentical) {
  CrashSoakConfig cfg;
  cfg.ops = 3;
  cfg.regions = 2;
  cfg.modules = 2;
  cfg.module_kb = 2;
  cfg.max_crash_points = 3;
  cfg.sweep_corruptions = false;
  const analysis::ReplayResult result = analysis::verify_crash_replay(cfg);
  EXPECT_TRUE(result.identical()) << result.summary();
  EXPECT_EQ(result.scenario, "crash");
}

}  // namespace
}  // namespace uparc::txn
