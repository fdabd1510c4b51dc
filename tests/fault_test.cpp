// Fault injection and recovery: every failure mode of the reconfiguration
// path must surface as a classified error, recover under the bounded-retry
// policy where possible, and replay bit-identically from the same FaultPlan
// seed.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/registry.hpp"
#include "controllers/mst_icap.hpp"
#include "controllers/xps_hwicap.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;
using fault::FaultPlan;
using fault::FaultSite;
using manager::RecoveryAction;

bits::PartialBitstream make_bs(std::size_t body_bytes, u64 seed = 5) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = body_bytes;
  cfg.seed = seed;
  return bits::Generator(cfg).generate();
}

// ------------------------------------------------------- injector mechanics

TEST(FaultInjector, AfterBurstAndMaxFiresShapeTheSchedule) {
  sim::Simulation sim;
  mem::Bram bram(sim, "bram", 4096);
  FaultPlan plan;
  plan.seed = 7;
  plan.arm(FaultSite::kBramRead, {.rate = 1.0, .after = 10, .burst = 3, .max_fires = 1});
  fault::FaultInjector inj(sim, "inj", plan);
  inj.arm_bram(bram);

  // All-zero BRAM: any nonzero read is a corrupted one.
  std::vector<std::size_t> corrupted;
  for (std::size_t i = 0; i < 30; ++i) {
    if (bram.read_word(i) != 0) corrupted.push_back(i);
  }
  // Skip 10 opportunities, then one fire covering a 3-read burst, then done.
  EXPECT_EQ(corrupted, (std::vector<std::size_t>{10, 11, 12}));
  EXPECT_EQ(inj.fires(FaultSite::kBramRead), 3u);
}

TEST(FaultInjector, UnarmedSitesCostNothingAndNeverFire) {
  sim::Simulation sim;
  mem::Bram bram(sim, "bram", 4096);
  fault::FaultInjector inj(sim, "inj", FaultPlan{});
  inj.arm_bram(bram);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(bram.read_word(i), 0u);
  EXPECT_EQ(inj.total_fires(), 0u);
}

// ------------------------------------------------------------- quiet runs
//
// quiet_run/pass let a stream take the opportunities between fires in one
// call. Driven in random chunks mixed with single should_fire calls, a site
// must fire on the same opportunities, flip the same bits and count the
// same fires as should_fire on every opportunity.

/// What one site did over a run of opportunities.
struct SiteLog {
  std::vector<u64> fired;  ///< opportunity indices that fired
  std::vector<u32> flips;  ///< flip_bit(site, 0) at each of them
  u64 fires = 0;
  double counter = 0.0;
  bool operator==(const SiteLog&) const = default;
};

fault::SiteConfig random_site(Prng& rng) {
  fault::SiteConfig cfg;
  switch (rng.below(3)) {
    case 0: cfg.rate = 1.0; break;
    case 1: cfg.rate = 1.0 - rng.uniform(); break;  // (0, 1]
    default: cfg.rate = std::pow(10.0, -1.0 - 3.0 * rng.uniform()); break;
  }
  cfg.after = rng.below(3) == 0 ? 0 : rng.below(400);
  cfg.burst = rng.below(5);  // 0 behaves as 1
  cfg.max_fires = rng.below(3) == 0 ? ~u64{0} : rng.below(8);
  return cfg;
}

/// Drives `site` over `n` opportunities. With `rng` null: should_fire on
/// each. Otherwise random quiet_run/pass chunks (some passing less than the
/// answer, some asking without passing) mixed with single calls.
SiteLog drive_site(const FaultPlan& plan, FaultSite site, u64 n, Prng* rng) {
  sim::Simulation sim;
  fault::FaultInjector inj(sim, "inj", plan);
  SiteLog log;
  const auto one = [&](u64 i) {
    if (inj.should_fire(site)) {
      log.fired.push_back(i);
      log.flips.push_back(inj.flip_bit(site, 0));
    }
  };
  for (u64 i = 0; i < n;) {
    if (rng == nullptr || rng->below(4) == 0) {
      one(i++);
      continue;
    }
    const u64 ask = std::min<u64>(n - i, 1 + rng->below(rng->below(2) == 0 ? 8 : 600));
    const u64 quiet = inj.quiet_run(site, ask);
    EXPECT_LE(quiet, ask);
    const u64 k = rng->below(3) == 0 ? rng->below(quiet + 1) : quiet;
    inj.pass(site, k);
    i += k;
    if (k == quiet && quiet < ask) {
      // The quiet run ends at a firing opportunity.
      EXPECT_TRUE(inj.should_fire(site)) << "opportunity " << i;
      log.fired.push_back(i);
      log.flips.push_back(inj.flip_bit(site, 0));
      ++i;
    }
  }
  log.fires = inj.fires(site);
  log.counter = sim.metrics().counter(std::string("inj.fires.") + fault::to_string(site)).value();
  return log;
}

TEST(FaultQuietRun, ChunkedPassesFireExactlyLikeEveryOpportunity) {
  Prng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    FaultPlan plan;
    plan.seed = rng.next();
    const auto site = static_cast<FaultSite>(rng.below(fault::kFaultSiteCount));
    plan.arm(site, random_site(rng));
    const u64 n = 1 + rng.below(3000);
    const SiteLog ref = drive_site(plan, site, n, nullptr);
    Prng chunks(rng.next());
    const SiteLog got = drive_site(plan, site, n, &chunks);
    ASSERT_EQ(got, ref) << "trial " << trial << " rate " << plan.at(site).rate << " after "
                        << plan.at(site).after << " burst " << plan.at(site).burst
                        << " max_fires " << plan.at(site).max_fires;
  }
}

TEST(FaultQuietRun, FireDecisionsAreThoseOfPrngChance) {
  // Site streams are seeded as in FaultInjector::reset(): plan seed + (site
  // index + 4) * 0xD1B54A32D192ED03 (indices 1-3 belong to retired sites).
  for (const double rate : {1.0, 0.5, 0.25, 1e-4, std::nextafter(1.0, 0.0), 0x1.0p-53,
                            0x1.8p-53, 3e-17, 0.7}) {
    FaultPlan plan;
    plan.seed = 99;
    plan.arm(FaultSite::kBramRead, {.rate = rate});
    sim::Simulation sim;
    fault::FaultInjector inj(sim, "inj", plan);
    Prng ref(plan.seed + (static_cast<u64>(FaultSite::kBramRead) + 4) * 0xD1B54A32D192ED03ULL);
    for (int i = 0; i < 4000; ++i) {
      ASSERT_EQ(inj.should_fire(FaultSite::kBramRead), ref.chance(rate))
          << "rate " << rate << " opportunity " << i;
    }
  }
}

TEST(FaultQuietRun, PassBeyondTheQuietRunThrows) {
  sim::Simulation sim;
  FaultPlan plan;
  // max_fires counts hits: a fire and its burst hit, then one more fire.
  plan.arm(FaultSite::kIcapAbort, {.rate = 1.0, .after = 5, .burst = 2, .max_fires = 3});
  fault::FaultInjector inj(sim, "inj", plan);
  EXPECT_EQ(inj.quiet_run(FaultSite::kIcapAbort, 100), 5u);  // the `after` window
  EXPECT_THROW(inj.pass(FaultSite::kIcapAbort, 6), std::logic_error);
  inj.pass(FaultSite::kIcapAbort, 5);
  EXPECT_EQ(inj.quiet_run(FaultSite::kIcapAbort, 100), 0u);
  EXPECT_THROW(inj.pass(FaultSite::kIcapAbort, 1), std::logic_error);
  EXPECT_TRUE(inj.should_fire(FaultSite::kIcapAbort));
  // An open burst is never quiet.
  EXPECT_EQ(inj.quiet_run(FaultSite::kIcapAbort, 100), 0u);
  EXPECT_THROW(inj.pass(FaultSite::kIcapAbort, 1), std::logic_error);
  EXPECT_TRUE(inj.should_fire(FaultSite::kIcapAbort));
  EXPECT_TRUE(inj.should_fire(FaultSite::kIcapAbort));
  EXPECT_TRUE(inj.should_fire(FaultSite::kIcapAbort));
  // max_fires used up: quiet forever, drawing nothing.
  EXPECT_EQ(inj.quiet_run(FaultSite::kIcapAbort, 1000), 1000u);
  inj.pass(FaultSite::kIcapAbort, 1000);
  EXPECT_FALSE(inj.should_fire(FaultSite::kIcapAbort));
  EXPECT_EQ(inj.fires(FaultSite::kIcapAbort), 4u);
  // An unarmed site is always quiet.
  EXPECT_EQ(inj.quiet_run(FaultSite::kBramRead, 7), 7u);
  inj.pass(FaultSite::kBramRead, 7);
}

// --------------------------------------------------- deterministic replay

TEST(FaultReplay, SameSeedProducesBitIdenticalOutcomes) {
  auto run_once = [](u64 seed) {
    core::System sys;
    FaultPlan plan;
    plan.seed = seed;
    plan.arm(FaultSite::kBramRead, {.rate = 2e-3});
    fault::FaultInjector inj(sys.sim(), "inj", plan);
    inj.arm(sys.uparc(), sys.icap());
    auto out = sys.run_recovery_blocking(make_bs(64_KiB));
    return std::tuple{out.success,
                      out.attempts,
                      out.watchdog_fires,
                      (out.end - out.start).ps(),
                      out.energy_uj,
                      inj.fires(FaultSite::kBramRead),
                      sys.icap().words_consumed(),
                      sys.sim().events_executed()};
  };
  const auto a = run_once(11);
  const auto b = run_once(11);
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<5>(a), 0u);  // the plan actually injected faults
}

// ------------------------------------------------------ recovery scenarios

TEST(Recovery, CleanRunTakesOneAttemptAndNoWatchdog) {
  core::System sys;
  auto out = sys.run_recovery_blocking(make_bs(64_KiB));
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.watchdog_fires, 0u);
  EXPECT_EQ(out.recovery_energy_uj, 0.0);
  EXPECT_GT(out.energy_uj, 0.0);
  ASSERT_EQ(out.history.size(), 1u);
  EXPECT_EQ(out.history[0].action, RecoveryAction::kNone);
}

TEST(Recovery, DcmLockFailureTimesOutThenRelocks) {
  core::System sys;
  FaultPlan plan;
  plan.seed = 3;
  plan.arm(FaultSite::kDcmLockFail, {.rate = 1.0, .max_fires = 1});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_dcm(sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig));

  // The retune's relock fails (injected): CLK_2 stays supply-gated.
  (void)sys.set_frequency_blocking(Frequency::mhz(200));
  EXPECT_FALSE(sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig).locked());

  auto out = sys.run_recovery_blocking(make_bs(64_KiB));
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_GE(out.watchdog_fires, 1u);
  ASSERT_GE(out.history.size(), 2u);
  // Attempt 1 stalled on the gated clock until the watchdog unstuck it.
  EXPECT_TRUE(out.history[0].result.cause == ErrorCause::kTimeout ||
              out.history[0].result.cause == ErrorCause::kClockUnlocked)
      << to_string(out.history[0].result.cause);
  EXPECT_EQ(out.history[0].action, RecoveryAction::kRelock);
  EXPECT_TRUE(sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig).locked());
}

TEST(Recovery, TruncatedPreloadRecoversViaRepreload) {
  core::System sys;
  FaultPlan plan;
  plan.seed = 4;
  plan.arm(FaultSite::kPreloadTruncate, {.rate = 1.0, .max_fires = 1, .param = 0.5});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_preloader(sys.uparc().preloader());

  auto out = sys.run_recovery_blocking(make_bs(64_KiB));
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_GE(out.history.size(), 2u);
  EXPECT_FALSE(out.history[0].result.success);
  EXPECT_EQ(out.history[0].action, RecoveryAction::kRepreload);
  EXPECT_EQ(sys.sim().metrics().counter_value(sys.uparc().preloader().name() + ".truncated"),
            1.0);
}

TEST(Recovery, MidFrameIcapAbortRecoversViaRepreload) {
  core::System sys;
  FaultPlan plan;
  plan.seed = 5;
  plan.arm(FaultSite::kIcapAbort, {.rate = 1.0, .after = 1000, .max_fires = 1});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_icap(sys.icap());

  auto out = sys.run_recovery_blocking(make_bs(64_KiB));
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 2u);
  ASSERT_GE(out.history.size(), 2u);
  EXPECT_EQ(out.history[0].result.cause, ErrorCause::kIcapAbort);
  EXPECT_EQ(out.history[0].action, RecoveryAction::kRepreload);
}

TEST(Recovery, RetriesWaitOutTheDeterministicBackoffSchedule) {
  core::System sys;
  FaultPlan plan;
  plan.seed = 4;
  plan.arm(FaultSite::kPreloadTruncate, {.rate = 1.0, .max_fires = 2, .param = 0.5});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_preloader(sys.uparc().preloader());

  auto out = sys.run_recovery_blocking(make_bs(64_KiB));
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 3u);
  // Two retries: 20us * weight(1.0), then doubled — exactly reproducible
  // from the policy, no randomness involved.
  EXPECT_EQ(out.backoffs, 2u);
  const manager::RecoveryPolicy policy;
  EXPECT_EQ(out.backoff_total,
            TimePs(policy.backoff_base.ps() +
                   static_cast<u64>(static_cast<double>(policy.backoff_base.ps()) *
                                    policy.backoff_factor)));
  EXPECT_EQ(sys.metrics().counter_value("recovery.backoffs"), 2.0);
  EXPECT_GE(out.end - out.start, out.backoff_total);
}

TEST(Recovery, BackoffReplaysBitIdenticallyAndZeroBaseDisablesIt) {
  auto run_once = [](TimePs base) {
    core::System sys;
    FaultPlan plan;
    plan.seed = 4;
    plan.arm(FaultSite::kPreloadTruncate, {.rate = 1.0, .max_fires = 2, .param = 0.5});
    fault::FaultInjector inj(sys.sim(), "inj", plan);
    inj.arm_preloader(sys.uparc().preloader());
    manager::RecoveryPolicy policy;
    policy.backoff_base = base;
    auto out = sys.run_recovery_blocking(make_bs(64_KiB), policy);
    return std::tuple{out.success, out.attempts, out.backoffs, out.backoff_total.ps(),
                      (out.end - out.start).ps()};
  };
  const auto a = run_once(TimePs::from_us(20));
  const auto b = run_once(TimePs::from_us(20));
  EXPECT_EQ(a, b);

  const auto off = run_once(TimePs{});
  EXPECT_TRUE(std::get<0>(off));
  EXPECT_EQ(std::get<2>(off), 0u);           // no backoffs taken
  EXPECT_EQ(std::get<3>(off), 0u);
  EXPECT_LT(std::get<4>(off), std::get<4>(a));  // and the run is faster
}

TEST(Recovery, BackoffIsCappedByPolicyAndBudget) {
  core::System sys;
  manager::RecoveryPolicy policy;
  policy.backoff_base = TimePs::from_us(900);
  policy.backoff_factor = 10.0;
  policy.backoff_cap = TimePs::from_us(1500);
  policy.max_attempts = 4;
  FaultPlan plan;
  plan.seed = 4;
  plan.arm(FaultSite::kPreloadTruncate, {.rate = 1.0, .max_fires = 3, .param = 0.5});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_preloader(sys.uparc().preloader());

  auto out = sys.run_recovery_blocking(make_bs(64_KiB), policy);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.backoffs, 3u);
  // Retries 2 and 3 would wait 9ms/90ms uncapped; the cap (and the attempt
  // cycle budget, whichever is tighter) bounds the whole schedule.
  EXPECT_GT(out.backoff_total.ps(), 0u);
  EXPECT_LE(out.backoff_total, TimePs::from_us(900 + 1500 + 1500));
}

TEST(Recovery, WatchdogBoundsEveryAttemptAndStepsDownBeforeGivingUp) {
  core::System sys;
  // A pathologically tight cycle budget: every attempt times out while the
  // DCM stays locked, which the policy reads as a timing problem.
  manager::RecoveryPolicy policy;
  policy.watchdog_slack = 0.05;
  policy.watchdog_floor = TimePs::from_us(10);
  auto out = sys.run_recovery_blocking(make_bs(64_KiB), policy);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts, policy.max_attempts);
  EXPECT_EQ(out.watchdog_fires, policy.max_attempts);
  ASSERT_EQ(out.history.size(), 4u);
  for (const auto& rec : out.history) {
    // kTimeout when the watchdog aborted a streaming UReC, kStalled when it
    // fired while the attempt was still preloading.
    EXPECT_TRUE(rec.result.cause == ErrorCause::kTimeout ||
                rec.result.cause == ErrorCause::kStalled)
        << to_string(rec.result.cause);
  }
  EXPECT_EQ(out.history[0].action, RecoveryAction::kFrequencyStepDown);
  EXPECT_EQ(out.history.back().action, RecoveryAction::kGiveUp);
  // The step-down actually lowered CLK_2.
  EXPECT_LT(out.history[1].frequency.in_mhz(), out.history[0].frequency.in_mhz());
  // Bounded latency: attempts x (budget + relock), far under a second.
  EXPECT_LT((out.end - out.start).ms(), 50.0);
}

TEST(Recovery, PersistentCorruptionGivesUpWithinTheAttemptBudget) {
  core::System sys;
  FaultPlan plan;
  plan.seed = 6;
  plan.arm(FaultSite::kIcapCorrupt, {.rate = 1.0});  // every ICAP word flipped
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm_icap(sys.icap());

  manager::RecoveryPolicy policy;
  auto out = sys.run_recovery_blocking(make_bs(64_KiB), policy);
  EXPECT_FALSE(out.success);
  EXPECT_LE(out.attempts, policy.max_attempts);
  EXPECT_EQ(out.history.back().action, RecoveryAction::kGiveUp);
  EXPECT_NE(out.final_result.cause, ErrorCause::kNone);
}

TEST(Recovery, DecoderCorruptionFallsBackToSimplerCodec) {
  core::System sys;
  // 500 KiB does not fit the 256 KB BRAM raw -> compressed mode (XMatchPro).
  auto bs = make_bs(500_KiB, 9);
  // Poison the decoder input for as long as the faulty codec is installed:
  // the fallback (kRle) restage then streams untouched.
  sys.uparc().decompressor().set_input_tap([&](u32 w) {
    return sys.uparc().codec() == compress::CodecId::kXMatchPro ? ~w : w;
  });

  auto out = sys.run_recovery_blocking(bs);
  EXPECT_TRUE(out.success);
  ASSERT_GE(out.history.size(), 2u);
  EXPECT_EQ(out.history[0].result.cause, ErrorCause::kDecompressor);
  EXPECT_EQ(out.history[0].action, RecoveryAction::kCodecFallback);
  EXPECT_EQ(sys.uparc().codec(), compress::CodecId::kRle);
}

// --------------------------------------------- end-to-end recovery demo

TEST(Recovery, EndToEndLockLossPlusCorruptedBurstCompletes) {
  // Reference run: learn the first attempt's streaming window (both systems
  // evolve identically until the first injected fault).
  const auto bs = make_bs(64_KiB, 5);
  TimePs mid{};
  TimePs clean_duration{};
  {
    core::System clean;
    auto out = clean.run_recovery_blocking(bs);
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.attempts, 1u);
    const TimePs a = out.history[0].result.start;
    const TimePs b = out.history[0].result.end;
    mid = a + TimePs{(b - a).ps() / 2};
    clean_duration = out.end - out.start;
  }

  core::System sys;
  FaultPlan plan;
  plan.seed = 21;
  // One corrupted 8-word BRAM burst, timed (by opportunity count) to land in
  // the post-relock attempt: attempt 1 cannot exceed the payload's own read
  // count before the lock loss stalls it.
  const u64 reads_per_attempt = static_cast<u64>(bs.body.size()) + 1;
  plan.arm(FaultSite::kBramRead,
           {.rate = 1.0, .after = reads_per_attempt * 6 / 5, .burst = 8, .max_fires = 1});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm(sys.uparc(), sys.icap());
  // Spontaneous LOCKED loss mid-stream on attempt 1.
  inj.schedule_lock_loss(sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig), mid);

  auto out = sys.run_recovery_blocking(bs);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_GE(out.watchdog_fires, 1u);
  ASSERT_EQ(out.history.size(), 3u);
  // Attempt 1: stalled by the lock loss, unstuck by the watchdog, relocked.
  EXPECT_EQ(out.history[0].action, RecoveryAction::kRelock);
  // Attempt 2: the corrupted burst surfaced as a data-path failure.
  EXPECT_FALSE(out.history[1].result.success);
  EXPECT_EQ(out.history[1].action, RecoveryAction::kRepreload);
  // Attempt 3: clean retry.
  EXPECT_TRUE(out.history[2].result.success);
  // Recovery cost is visible through the power substrate and the watchdog
  // kept the whole ordeal bounded.
  EXPECT_GT(out.recovery_energy_uj, 0.0);
  EXPECT_GT(out.energy_uj, out.recovery_energy_uj);
  EXPECT_LT((out.end - out.start).ms(), clean_duration.ms() + 20.0);
}

// ----------------------------------------- baseline storage fault paths

TEST(BaselineFaults, Ddr2ReadCorruptionFailsCleanly) {
  core::System sys;
  auto controller = sys.make_baseline("MST_ICAP");
  auto* mst = static_cast<ctrl::MstIcap*>(controller.get());
  u64 flips = 0;
  mst->ddr().set_read_tap([&flips](std::size_t addr, u32 value) {
    if (addr % 100 != 7) return value;
    ++flips;
    return value ^ 0x10u;
  });

  auto r = sys.run_controller_blocking(*controller, make_bs(64_KiB));
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.cause, ErrorCause::kNone);
  EXPECT_GT(flips, 0u);
}

TEST(BaselineFaults, Ddr2StallsSlowTheRunButDoNotBreakIt) {
  auto run_once = [](bool with_stalls) {
    core::System sys;
    auto controller = sys.make_baseline("MST_ICAP");
    if (with_stalls) {
      static_cast<ctrl::MstIcap*>(controller.get())->ddr().set_stall_tap([] { return 100u; });
    }
    auto r = sys.run_controller_blocking(*controller, make_bs(64_KiB));
    EXPECT_TRUE(r.success);
    return r.duration();
  };
  EXPECT_GT(run_once(true).ps(), run_once(false).ps());
}

TEST(BaselineFaults, CompactFlashSectorCorruptionFailsCleanly) {
  core::System sys;
  auto controller = sys.make_baseline("xps_hwicap_cf");
  auto bs = make_bs(64_KiB);
  ASSERT_TRUE(controller->stage(bs).ok());

  auto* xps = static_cast<ctrl::XpsHwicap*>(controller.get());
  ASSERT_NE(xps->card(), nullptr);
  u64 flips = 0;
  xps->card()->set_sector_tap([&flips](std::size_t, Bytes& sector) {
    if (sector.empty()) return;
    ++flips;
    sector[sector.size() / 2] ^= 0x01;  // one flipped byte per sector
  });

  std::optional<ctrl::ReconfigResult> got;
  controller->reconfigure([&](const ctrl::ReconfigResult& r) { got = r; });
  sys.sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->success);
  EXPECT_NE(got->cause, ErrorCause::kNone);
  EXPECT_GT(flips, 0u);
}

}  // namespace
}  // namespace uparc
