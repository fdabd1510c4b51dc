// Unit and integration tests for the bitstream cache hierarchy: content
// keys, eviction policies, tier behaviour, CRC poisoning, transaction
// coherence, the runtime prefetch engine — and regression tests for the
// preload/prefetch accounting fixes (truncated-preload word counts, the
// hidden_fraction denominator, the first-slot prefetch window origin).
#include <gtest/gtest.h>

#include "cache/bitstream_cache.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "manager/preloader.hpp"
#include "sched/prefetch.hpp"

namespace uparc::cache {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed,
                               bits::FrameAddress start = {0, 0, 0, 1, 0}) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.start_address = start;
  cfg.utilization = 1.0;
  return bits::Generator(cfg).generate();
}

core::SystemConfig cached_config() {
  core::SystemConfig cfg;
  cfg.with_cache = true;
  return cfg;
}

// ----- content keys ---------------------------------------------------------

TEST(CacheKeyTest, RelocatedImageSharesKey) {
  auto bs = make_bs(16_KiB, 7);
  auto rel = bits::relocate(bs, bits::FrameAddress{0, 0, 0, 2, 0});
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(key_of(bs), key_of(rel.value()));
  EXPECT_EQ(key_of(bs).origin_far, 0u);  // relocatable: no pinned origin
}

TEST(CacheKeyTest, DistinctContentDistinctKey) {
  EXPECT_NE(key_of(make_bs(16_KiB, 7)), key_of(make_bs(16_KiB, 8)));
}

TEST(CacheKeyTest, CompressedKeyPinnedToOrigin) {
  auto bs = make_bs(16_KiB, 7);
  auto rel = bits::relocate(bs, bits::FrameAddress{0, 0, 0, 2, 0});
  ASSERT_TRUE(rel.ok());
  const CacheKey a = key_of_compressed(bs, 3);
  const CacheKey b = key_of_compressed(rel.value(), 3);
  EXPECT_NE(a, b);  // the container hides the FAR: location-pinned
  EXPECT_NE(a.kind, 0);
  EXPECT_NE(a.origin_far, b.origin_far);
  EXPECT_NE(a, key_of_compressed(bs, 4));  // codec id is part of the key
}

// ----- eviction policies ----------------------------------------------------

TEST(EvictionPolicyTest, LruScoreIsRecency) {
  LruPolicy lru;
  EntryMeta old_entry{.bytes = 1024, .last_use = TimePs::from_us(10)};
  EntryMeta new_entry{.bytes = 1024, .last_use = TimePs::from_us(500)};
  EXPECT_LT(lru.score(old_entry, TimePs::from_ms(1)),
            lru.score(new_entry, TimePs::from_ms(1)));
}

TEST(EvictionPolicyTest, EnergyWeightedPrefersExpensiveRefetches) {
  EnergyWeightedPolicy p;
  // 64 KB at 50 MB/s under the manager's 107 mW active-wait draw.
  sched::EnergyPolicy model;
  EXPECT_NEAR(model.refetch_cost_uj(64 * 1024), 140.25, 1.0);

  EntryMeta big{.bytes = 64 * 1024, .last_use = TimePs(0)};
  EntryMeta small{.bytes = 16 * 1024, .last_use = TimePs(0)};
  EXPECT_GT(p.score(big, TimePs(0)), p.score(small, TimePs(0)));

  // One half-life of staleness halves the score: a dead giant eventually
  // yields to a warm small entry.
  EXPECT_NEAR(p.score(big, TimePs::from_ms(50)), 0.5 * p.score(big, TimePs(0)),
              1e-6 * p.score(big, TimePs(0)));
}

TEST(EvictionPolicyTest, FactoryKnowsBothNames) {
  ASSERT_NE(make_eviction_policy("lru"), nullptr);
  EXPECT_EQ(make_eviction_policy("lru")->name(), "lru");
  ASSERT_NE(make_eviction_policy("energy"), nullptr);
  EXPECT_EQ(make_eviction_policy("energy")->name(), "energy");
  EXPECT_EQ(make_eviction_policy("mru"), nullptr);
}

// ----- cache tiers (unit) ---------------------------------------------------

class BitstreamCacheFixture : public ::testing::Test {
 protected:
  BitstreamCache::Config small_config() {
    BitstreamCache::Config cfg;
    cfg.hot_slots = 2;
    cfg.hot_slot_bytes = 64 * 1024;
    cfg.staging_bytes = 40 * 1024;  // fits two 16 KiB bodies, not three
    return cfg;
  }

  void advance(double us) {
    sim.schedule_in(TimePs::from_us(us), [] {});
    sim.run();
  }

  sim::Simulation sim;
};

TEST_F(BitstreamCacheFixture, StagingHitPromotesToHot) {
  BitstreamCache cache(sim, "cache", small_config());
  auto bs = make_bs(16_KiB, 1);
  const CacheKey key = key_of(bs);
  const bits::FrameAddress origin = bs.frames.front().address;

  EXPECT_FALSE(cache.lookup(key, &origin).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.admit(key, bs.body, bs.body.size() * 4, origin, true);
  EXPECT_TRUE(cache.contains(key));
  EXPECT_EQ(cache.entry_count(), 1u);

  // First hit comes from the DDR2 staging tier and promotes the entry...
  auto served = cache.lookup(key, &origin);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->tier, CacheTier::kStaging);
  EXPECT_EQ(served->words, bs.body);
  EXPECT_FALSE(served->relocated);
  EXPECT_EQ(cache.hits_staging(), 1u);
  EXPECT_EQ(cache.hot_count(), 1u);

  // ...so the second is a BRAM-to-BRAM burst: strictly cheaper.
  auto hot = cache.lookup(key, &origin);
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->tier, CacheTier::kHot);
  EXPECT_EQ(hot->words, bs.body);
  EXPECT_LT(hot->copy_cycles, served->copy_cycles);
  EXPECT_EQ(cache.hits_hot(), 1u);
  EXPECT_GT(cache.hit_rate(), 0.5);
}

TEST_F(BitstreamCacheFixture, RelocationSharingRewritesTheFar) {
  BitstreamCache cache(sim, "cache", small_config());
  auto bs = make_bs(16_KiB, 2);
  const bits::FrameAddress here = bs.frames.front().address;
  const bits::FrameAddress there{0, 0, 0, 2, 0};
  auto expect = bits::relocate(bs, there);
  ASSERT_TRUE(expect.ok());

  cache.admit(key_of(bs), bs.body, bs.body.size() * 4, here, true);

  // One cached copy serves a different region: the FAR (and CRC) are
  // rewritten on the way out, and the ground-truth frames follow.
  auto served = cache.lookup(key_of(bs), &there);
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(served->relocated);
  EXPECT_EQ(served->words, expect.value().body);
  ASSERT_FALSE(served->frames.empty());
  EXPECT_EQ(served->frames.front().address, there);
  EXPECT_EQ(cache.relocations(), 1u);
}

TEST_F(BitstreamCacheFixture, NonRelocatableEntryMissesAtOtherOrigin) {
  BitstreamCache cache(sim, "cache", small_config());
  auto bs = make_bs(16_KiB, 3);
  const bits::FrameAddress here = bs.frames.front().address;
  const bits::FrameAddress there{0, 0, 0, 2, 0};

  cache.admit(key_of(bs), bs.body, bs.body.size() * 4, here, false);
  EXPECT_FALSE(cache.lookup(key_of(bs), &there).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_TRUE(cache.contains(key_of(bs)));  // still valid where it lives
  auto served = cache.lookup(key_of(bs), &here);
  ASSERT_TRUE(served.has_value());
}

TEST_F(BitstreamCacheFixture, PoisonedEntryIsInvalidatedNotServed) {
  BitstreamCache cache(sim, "cache", small_config());
  auto bs = make_bs(16_KiB, 4);
  const bits::FrameAddress origin = bs.frames.front().address;
  cache.admit(key_of(bs), bs.body, bs.body.size() * 4, origin, true);

  // An upset on the staging DRAM read path: the stored CRC no longer
  // matches, so the cache must fall back to a miss and drop the entry —
  // stale-fast is acceptable, wrong never is.
  cache.staging_memory().set_read_tap(
      [](std::size_t addr, u32 v) { return addr == 5 ? v ^ 0x40u : v; });
  EXPECT_FALSE(cache.lookup(key_of(bs), &origin).has_value());
  EXPECT_EQ(cache.poisoned_rejects(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_FALSE(cache.contains(key_of(bs)));
}

TEST_F(BitstreamCacheFixture, CapacityEvictionDropsColdestEntry) {
  BitstreamCache cache(sim, "cache", small_config());
  cache.set_policy(make_eviction_policy("lru"));
  auto a = make_bs(16_KiB, 5);
  auto b = make_bs(16_KiB, 6);
  auto c = make_bs(16_KiB, 7);
  const bits::FrameAddress origin = a.frames.front().address;

  cache.admit(key_of(a), a.body, a.body.size() * 4, origin, true);
  advance(100);
  cache.admit(key_of(b), b.body, b.body.size() * 4, origin, true);
  advance(100);
  ASSERT_TRUE(cache.lookup(key_of(a), &origin).has_value());  // refresh a
  advance(100);

  // The staging tier only holds two bodies: admitting c evicts the
  // least-recently-used entry, which is now b.
  cache.admit(key_of(c), c.body, c.body.size() * 4, origin, true);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(key_of(a)));
  EXPECT_FALSE(cache.contains(key_of(b)));
  EXPECT_TRUE(cache.contains(key_of(c)));
}

TEST_F(BitstreamCacheFixture, HotSlotPressureDemotesNotDrops) {
  BitstreamCache::Config cfg = small_config();
  cfg.hot_slots = 1;
  BitstreamCache cache(sim, "cache", cfg);
  auto a = make_bs(16_KiB, 8);
  auto b = make_bs(16_KiB, 9);
  const bits::FrameAddress origin = a.frames.front().address;

  cache.admit(key_of(a), a.body, a.body.size() * 4, origin, true);
  cache.admit(key_of(b), b.body, b.body.size() * 4, origin, true);
  (void)cache.lookup(key_of(a), &origin);  // staging hit -> a goes hot
  EXPECT_EQ(cache.hot_count(), 1u);
  (void)cache.lookup(key_of(b), &origin);  // b takes the only slot
  EXPECT_EQ(cache.hot_count(), 1u);
  // a lost its slot but not its staging copy.
  EXPECT_TRUE(cache.contains(key_of(a)));
  auto again = cache.lookup(key_of(a), &origin);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->tier, CacheTier::kStaging);
}

TEST_F(BitstreamCacheFixture, InvalidateIsIdempotent) {
  BitstreamCache cache(sim, "cache", small_config());
  auto bs = make_bs(16_KiB, 10);
  cache.admit(key_of(bs), bs.body, bs.body.size() * 4, bs.frames.front().address, true);
  cache.invalidate(key_of(bs));
  EXPECT_FALSE(cache.contains(key_of(bs)));
  cache.invalidate(key_of(bs));  // no-op, no throw
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ----- end-to-end through the controller ------------------------------------

TEST(SystemCacheTest, SecondStageIsServedResident) {
  core::System sys(cached_config());
  auto bs = make_bs(64_KiB, 11);

  ASSERT_TRUE(sys.stage(bs).ok());
  ASSERT_TRUE(sys.reconfigure_blocking().success);
  EXPECT_EQ(sys.uparc().last_stage_tier(), CacheTier::kMiss);
  const TimePs miss_preload = sys.uparc().preloader().last_duration();

  // The image is still in the staging window: re-staging costs only the
  // tag check, not the 50 MB/s external-storage copy.
  ASSERT_TRUE(sys.stage(bs).ok());
  ASSERT_TRUE(sys.reconfigure_blocking().success);
  EXPECT_EQ(sys.uparc().last_stage_tier(), CacheTier::kResident);
  EXPECT_EQ(sys.metrics().counter_value("uparc.cache_resident_hits"), 1.0);
  EXPECT_LT(sys.uparc().preloader().last_duration().ps() * 100, miss_preload.ps());
}

TEST(SystemCacheTest, AlternatingStagesClimbTheTierLadder) {
  core::System sys(cached_config());
  auto a = make_bs(16_KiB, 12);
  auto b = make_bs(16_KiB, 13);

  auto stage = [&](const bits::PartialBitstream& bs) {
    EXPECT_TRUE(sys.stage(bs).ok());
    EXPECT_TRUE(sys.reconfigure_blocking().success);
    return sys.uparc().last_stage_tier();
  };

  EXPECT_EQ(stage(a), CacheTier::kMiss);
  EXPECT_EQ(stage(b), CacheTier::kMiss);
  EXPECT_EQ(stage(a), CacheTier::kStaging);  // admitted on the miss
  EXPECT_EQ(stage(b), CacheTier::kStaging);
  EXPECT_EQ(stage(a), CacheTier::kHot);  // promoted by the staging hit
  EXPECT_EQ(stage(b), CacheTier::kHot);
  EXPECT_EQ(stage(b), CacheTier::kResident);  // still in the window

  ASSERT_NE(sys.cache(), nullptr);
  EXPECT_GT(sys.cache()->hit_rate(), 0.5);
}

TEST(SystemCacheTest, CacheOffIsBypass) {
  core::System sys;
  auto bs = make_bs(16_KiB, 14);
  ASSERT_TRUE(sys.stage(bs).ok());
  ASSERT_TRUE(sys.reconfigure_blocking().success);
  EXPECT_EQ(sys.uparc().last_stage_tier(), CacheTier::kBypass);
  EXPECT_EQ(sys.cache(), nullptr);
}

// ----- transaction coherence ------------------------------------------------

TEST(TxnCacheTest, CommitPromotesTheImage) {
  core::System sys(cached_config());
  auto image = make_bs(16_KiB, 15, {0, 0, 1, 10, 0});
  auto out = sys.run_transaction_blocking("r0", "fft", image);
  ASSERT_TRUE(out.committed);
  EXPECT_TRUE(is_hit(out.stage_cache_tier) ||
              out.stage_cache_tier == CacheTier::kMiss);

  ASSERT_NE(sys.cache(), nullptr);
  EXPECT_TRUE(sys.cache()->contains(key_of(image)));
  EXPECT_GE(sys.cache()->hot_count(), 1u);  // commit pins it hot
}

TEST(TxnCacheTest, RollbackNeverLeavesThePoisonedImageCached) {
  core::System sys(cached_config());
  auto image = make_bs(16_KiB, 16, {0, 0, 1, 10, 0});

  // Abort every forward ICAP burst: the transaction rolls back to blank.
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.arm(fault::FaultSite::kIcapAbort, {.rate = 1.0, .max_fires = 2});
  fault::FaultInjector inj(sys.sim(), "inj", plan);
  inj.arm(sys.uparc(), sys.icap());

  txn::TxnPolicy policy;
  policy.forward.max_attempts = 2;
  auto out = sys.run_transaction_blocking("r0", "fft", image, policy);
  EXPECT_FALSE(out.committed);

  // The image was admitted on its forward stage, but the rollback proved
  // it bad: no tier may still serve it.
  ASSERT_NE(sys.cache(), nullptr);
  EXPECT_FALSE(sys.cache()->contains(key_of(image)));
}

// ----- staging epoch --------------------------------------------------------

TEST(SystemCacheTest, RestageMidDmaKeepsTheLaterImage) {
  core::System sys(cached_config());
  auto first = make_bs(16_KiB, 20);
  auto second = make_bs(16_KiB, 21);

  // The second stage arrives while the first copy is still on the manager
  // bus: the staging epoch drops the first copy's completion, and the
  // second image is the one programmed.
  ASSERT_TRUE(sys.stage(first).ok());
  ASSERT_TRUE(sys.stage(second).ok());
  ASSERT_TRUE(sys.reconfigure_blocking().success);
  EXPECT_TRUE(sys.plane().contains(second.frames));
}

// ----- bugfix regressions ---------------------------------------------------

// Bugfix 1: a truncated preload used to report the *requested* word count
// as preloaded. The copied prefix (plus mode word) is what landed; the
// requested total is tracked separately.
TEST(PreloadAccountingTest, TruncatedPreloadReportsCopiedNotRequested) {
  sim::Simulation sim;
  manager::MicroBlaze mb(sim, "mb");
  mem::Bram bram(sim, "bram", 256_KiB);
  manager::Preloader pre(sim, "pre", mb, bram);

  auto bs = make_bs(16_KiB, 26);
  const std::size_t total = bs.body.size();
  pre.set_truncate_tap([](std::size_t words) { return words / 2; });

  bool done = false;
  ASSERT_TRUE(pre.preload_body(bs.body, [&] { done = true; }).ok());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(pre.last_copy_complete());

  const std::size_t copied = total / 2;
  EXPECT_EQ(sim.metrics().counter_value("pre.words"),
            static_cast<double>(copied + 1));
  EXPECT_EQ(sim.metrics().counter_value("pre.requested_words"),
            static_cast<double>(total + 1));
  // The header still advertises the full length (that is the torn-file
  // hazard), but only the copied prefix is in the BRAM.
  EXPECT_EQ(manager::BramLayout::payload_words(bram.read_word(0)), total);
  EXPECT_EQ(bram.read_word(copied), bs.body[copied - 1]);
  EXPECT_EQ(bram.read_word(total), 0u);  // stale tail

  // A complete preload keeps both counters in lockstep.
  pre.set_truncate_tap({});
  done = false;
  ASSERT_TRUE(pre.preload_body(bs.body, [&] { done = true; }).ok());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(pre.last_copy_complete());
  EXPECT_EQ(sim.metrics().counter_value("pre.words"),
            static_cast<double>(copied + 1 + total + 1));
  EXPECT_EQ(sim.metrics().counter_value("pre.requested_words"),
            static_cast<double>(2 * (total + 1)));
}

// Bugfix 2: hidden_fraction() is the fraction of the no-prefetch
// reconfiguration cost hidden — the denominator includes the programming
// time itself, and the degenerate empty schedule hides everything.
TEST(PrefetchMathTest, HiddenFractionIncludesReconfigCost) {
  sched::PrefetchReport report;
  EXPECT_DOUBLE_EQ(report.hidden_fraction(), 1.0);  // empty schedule

  report.serial_penalty = TimePs::from_us(100);
  report.total_exposed = TimePs::from_us(25);
  report.total_reconfig = TimePs::from_us(100);
  // (100 - 25) / (100 + 100): the old preload-only denominator gave 0.75.
  EXPECT_DOUBLE_EQ(report.hidden_fraction(), 0.375);
}

TEST(PrefetchMathTest, EmptyScheduleAnalyzesToFullyHidden) {
  sched::TaskSet set;
  auto report = sched::analyze_prefetch(set, sched::Schedule{});
  EXPECT_TRUE(report.slots.empty());
  EXPECT_DOUBLE_EQ(report.hidden_fraction(), 1.0);
}

// Bugfix 3: the first slot's prefetch window opens at the schedule's actual
// origin (the activation's ready time), not at t=0 — there is nothing to
// preload before the workload exists.
TEST(PrefetchMathTest, FirstSlotWindowOpensAtScheduleOrigin) {
  sched::TaskSet set;
  auto t = set.add_task({"m", 64 * 1024, TimePs::from_us(100)});
  set.add_activation({t, TimePs::from_ms(2), TimePs::from_ms(20)});
  sched::Schedule schedule;
  sched::ScheduledSlot slot;
  slot.activation = set.activations()[0];
  slot.reconfig_start = TimePs::from_us(2050);  // ready + 50 us relock
  slot.reconfig_end = TimePs::from_us(2250);
  schedule.slots.push_back(slot);

  auto report = sched::analyze_prefetch(set, schedule);
  ASSERT_EQ(report.slots.size(), 1u);
  // 64 KB at 50 MB/s is a 1.31 ms preload; only the 50 us before the
  // reconfig hides. The old t=0 window claimed it fully hidden.
  EXPECT_FALSE(report.slots[0].fully_hidden);
  EXPECT_EQ(report.slots[0].preload_start, TimePs::from_ms(2));
  EXPECT_NEAR(report.slots[0].exposed.us(), 1310.72 - 50.0, 1.0);
}

TEST(PrefetchMathTest, ParamsOriginClampsTheWindow) {
  sched::TaskSet set;
  auto t = set.add_task({"m", 64 * 1024, TimePs::from_us(100)});
  set.add_activation({t, TimePs(0), TimePs::from_ms(20)});
  sched::Schedule schedule;
  sched::ScheduledSlot slot;
  slot.activation = set.activations()[0];
  slot.reconfig_start = TimePs::from_us(2050);
  slot.reconfig_end = TimePs::from_us(2250);
  schedule.slots.push_back(slot);

  // Untouched origin: the [0, 2.05 ms] window swallows the 1.31 ms preload.
  auto free_report = sched::analyze_prefetch(set, schedule);
  EXPECT_TRUE(free_report.slots[0].fully_hidden);

  // A late harness start pushes the window open past the hide point.
  sched::PrefetchParams params;
  params.origin = TimePs::from_ms(1);
  auto late = sched::analyze_prefetch(set, schedule, params);
  EXPECT_FALSE(late.slots[0].fully_hidden);
  EXPECT_EQ(late.slots[0].preload_start, TimePs::from_ms(1));
}

}  // namespace
}  // namespace uparc::cache
