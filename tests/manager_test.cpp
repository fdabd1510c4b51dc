// Unit tests for the Manager layer: cost model, preloader, control,
// frequency adaptation.
#include <gtest/gtest.h>

#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"
#include "manager/adaptation.hpp"
#include "manager/control.hpp"
#include "manager/preloader.hpp"

namespace uparc::manager {
namespace {

using namespace uparc::literals;

TEST(MicroBlazeTest, CycleTimeAtHundredMegahertz) {
  sim::Simulation sim;
  MicroBlaze mb(sim, "mb");
  EXPECT_EQ(mb.cycles(125).ps(), 1'250'000u);  // the Fig. 5 1.25 us overhead
  bool ran = false;
  mb.execute(100, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ps(), 1'000'000u);
  EXPECT_EQ(mb.busy_time().ps(), 1'000'000u);
}

class PreloaderFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  MicroBlaze mb{sim, "mb"};
  mem::Bram bram{sim, "bram", 256_KiB};
  Preloader pre{sim, "pre", mb, bram};

  bits::PartialBitstream make_bs(std::size_t bytes, u64 seed = 1) {
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = bytes;
    cfg.seed = seed;
    return bits::Generator(cfg).generate();
  }
};

TEST_F(PreloaderFixture, PreloadsBodyWithModeWord) {
  auto bs = make_bs(32_KiB);
  bool done = false;
  auto st = pre.preload_body(bs.body, [&] { done = true; });
  ASSERT_TRUE(st.ok());
  sim.run();
  ASSERT_TRUE(done);

  const u32 header = bram.read_word(0);
  EXPECT_FALSE(BramLayout::is_compressed(header));
  EXPECT_EQ(BramLayout::payload_words(header), bs.body.size());
  EXPECT_EQ(bram.read_word(1), bs.body[0]);
  EXPECT_EQ(bram.read_word(bs.body.size()), bs.body.back());
  // Copy time: (words+1) * 8 cycles at 100 MHz.
  EXPECT_EQ(pre.last_duration().ps(), (bs.body.size() + 1) * 8 * 10'000);
}

TEST_F(PreloaderFixture, PreloadsFullBitFile) {
  auto bs = make_bs(16_KiB);
  auto file = bits::parse_file(bits::to_file(bs));
  ASSERT_TRUE(file.ok()) << file.error().message;
  bool done = false;
  auto st = pre.preload_body(file.value().bitstream.body, [&] { done = true; });
  ASSERT_TRUE(st.ok());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(BramLayout::payload_words(bram.read_word(0)), bs.body.size());
}

TEST_F(PreloaderFixture, RejectsOversizedBody) {
  auto bs = make_bs(300_KiB);  // > 256 KB BRAM
  auto st = pre.preload_body(bs.body, [] {});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("does not fit"), std::string::npos);
}

TEST_F(PreloaderFixture, RejectsCorruptFile) {
  Bytes junk(100, 0xAB);
  EXPECT_FALSE(bits::parse_file(junk).ok());
}

TEST_F(PreloaderFixture, CompressedContainerStoredVerbatim) {
  Bytes container = {0xC5, 0x05, 0x00, 0x00, 0x10, 0x00, 0xAA, 0xBB};
  bool done = false;
  auto st = pre.preload_compressed(container, [&] { done = true; });
  ASSERT_TRUE(st.ok());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(BramLayout::is_compressed(bram.read_word(0)));
  EXPECT_EQ(BramLayout::payload_words(bram.read_word(0)), 2u);
  EXPECT_EQ(bram.read_word(1), 0xC5050000u);
}

TEST(ControlTest, LaunchChargesOverheadAndWaits) {
  sim::Simulation sim;
  MicroBlaze mb(sim, "mb");
  ReconfigControl ctl(sim, "ctl", mb, nullptr, WaitMode::kActiveWait);
  EXPECT_EQ(ctl.control_overhead().ps(), 1'250'000u);

  std::function<void()> hw_finish;
  bool done = false;
  TimePs started_at{};
  ctl.launch(
      [&](std::function<void()> finish) {
        started_at = sim.now();
        hw_finish = std::move(finish);
      },
      [&] { done = true; });
  EXPECT_TRUE(ctl.busy());
  sim.run();
  EXPECT_EQ(started_at.ps(), 1'250'000u);  // Start after 125 cycles
  ASSERT_TRUE(hw_finish != nullptr);
  EXPECT_FALSE(done);

  // Hardware raises Finish 100 us later.
  sim.schedule_at(TimePs::from_us(100), [&] { hw_finish(); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ctl.busy());
  EXPECT_EQ(ctl.launches(), 1u);
}

TEST(ControlTest, ActiveWaitDrawsManagerPower) {
  sim::Simulation sim;
  power::Rail rail(sim, "r");
  MicroBlaze mb(sim, "mb");
  ReconfigControl ctl(sim, "ctl", mb, &rail, WaitMode::kActiveWait);

  std::function<void()> hw_finish;
  ctl.launch([&](std::function<void()> f) { hw_finish = std::move(f); }, [] {});
  sim.run();
  // During the wait, the manager's active-wait level (107 mW) is on the rail.
  EXPECT_NEAR(rail.current_mw(), power::kManagerActiveWaitMw, 1e-9);
  hw_finish();
  sim.run();
  EXPECT_EQ(rail.current_mw(), 0.0);
}

TEST(ControlTest, InterruptModeDrawsNothingWhileWaiting) {
  sim::Simulation sim;
  power::Rail rail(sim, "r");
  MicroBlaze mb(sim, "mb");
  ReconfigControl ctl(sim, "ctl", mb, &rail, WaitMode::kInterrupt);

  std::function<void()> hw_finish;
  ctl.launch([&](std::function<void()> f) { hw_finish = std::move(f); }, [] {});
  sim.run();
  EXPECT_EQ(rail.current_mw(), 0.0);
  hw_finish();
  sim.run();
}

TEST(ControlTest, DoubleLaunchThrows) {
  sim::Simulation sim;
  MicroBlaze mb(sim, "mb");
  ReconfigControl ctl(sim, "ctl", mb, nullptr);
  ctl.launch([](std::function<void()>) {}, [] {});
  EXPECT_THROW(ctl.launch([](std::function<void()>) {}, [] {}), std::logic_error);
}

class AdapterFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  clocking::DyCloGen gen{sim, "dyclogen", Frequency::mhz(100), TimePs::from_us(10)};
  FrequencyAdapter adapter{gen, Frequency::mhz(362.5), TimePs::from_us(1.25),
                           WaitMode::kActiveWait};
};

TEST_F(AdapterFixture, PredictsFig5AnchorPoints) {
  // 6.5 KB at 362.5 MHz: ~78.8% of the 1.45 GB/s theoretical bandwidth.
  const u64 small = 6656;
  const TimePs t_small = adapter.predict_time(small, Frequency::mhz(362.5));
  const double bw_small = small / t_small.seconds() / 1e9;
  EXPECT_NEAR(bw_small / 1.45, 0.788, 0.015);

  // 247 KB: ~99%.
  const u64 big = 247 * 1024;
  const TimePs t_big = adapter.predict_time(big, Frequency::mhz(362.5));
  const double bw_big = big / t_big.seconds() / 1e9;
  EXPECT_NEAR(bw_big / 1.45, 0.99, 0.005);
}

TEST_F(AdapterFixture, MinFrequencyMeetsDeadlineExactly) {
  const u64 bytes = 216 * 1024;
  auto f = adapter.min_frequency_for(bytes, TimePs::from_us(500));
  ASSERT_TRUE(f.has_value());
  EXPECT_LE(adapter.predict_time(bytes, *f).ps(), TimePs::from_us(500).ps() + 1000);
  EXPECT_FALSE(adapter.min_frequency_for(bytes, TimePs::from_us(1)).has_value());
  EXPECT_FALSE(adapter.min_frequency_for(bytes, TimePs::from_us(100)).has_value());
}

TEST_F(AdapterFixture, MaxPerformancePlanPicksPaperPoint) {
  auto plan = adapter.plan(FrequencyPolicy::kMaxPerformance, 216 * 1024, TimePs::from_ms(10));
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->choice.f_out.in_mhz(), 362.5, 1e-6);
  EXPECT_EQ(plan->choice.m, 29u);
  EXPECT_EQ(plan->choice.d, 8u);
}

TEST_F(AdapterFixture, MinPowerPlanPicksLowestFeasible) {
  const u64 bytes = 216 * 1024;
  const TimePs deadline = TimePs::from_ms(1.2);  // ~50 MHz territory
  auto plan = adapter.plan(FrequencyPolicy::kMinPowerDeadline, bytes, deadline);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->predicted_time, deadline);
  // The next synthesizable frequency down must miss the deadline.
  EXPECT_LT(plan->choice.f_out.in_mhz(), 60.0);
  EXPECT_GT(plan->predicted_mw, 0.0);
  EXPECT_GT(plan->predicted_uj, 0.0);
}

TEST_F(AdapterFixture, MinEnergyWithActiveWaitGoesFast) {
  auto plan = adapter.plan(FrequencyPolicy::kMinEnergy, 216 * 1024, TimePs::from_ms(5));
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->choice.f_out.in_mhz(), 362.5, 1e-6);
}

TEST_F(AdapterFixture, MinEnergyIsTrueArgminOverTheGrid) {
  // kMinEnergy explicitly minimizes predicted energy among deadline-meeting
  // synthesizable frequencies. Under the calibrated sub-linear power curve
  // that lands at high frequency in both wait modes.
  FrequencyAdapter irq_adapter(gen, Frequency::mhz(362.5), TimePs::from_us(1.25),
                               WaitMode::kInterrupt);
  auto plan =
      irq_adapter.plan(FrequencyPolicy::kMinEnergy, 216 * 1024, TimePs::from_ms(1.2));
  ASSERT_TRUE(plan.has_value());
  // No other feasible grid frequency has lower predicted energy.
  for (double mhz : {50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 362.5}) {
    const Frequency f = Frequency::mhz(mhz);
    if (irq_adapter.predict_time(216 * 1024, f) > TimePs::from_ms(1.2)) continue;
    EXPECT_LE(plan->predicted_uj, irq_adapter.predict_uj(216 * 1024, f) + 1e-9) << mhz;
  }
  EXPECT_GT(plan->choice.f_out.in_mhz(), 300.0);
}

TEST_F(AdapterFixture, ApplyProgramsDyCloGen) {
  bool relocked = false;
  auto plan = adapter.apply(FrequencyPolicy::kMaxPerformance, 64_KiB, TimePs::from_ms(10),
                            [&] { relocked = true; });
  ASSERT_TRUE(plan.has_value());
  sim.run();
  EXPECT_TRUE(relocked);
  EXPECT_NEAR(gen.frequency(clocking::ClockId::kReconfig).in_mhz(), 362.5, 1e-6);
}

TEST_F(AdapterFixture, ActiveWaitEnergyFallsWithFrequency) {
  // The paper's observation: with an active-wait manager, faster is cheaper.
  const u64 bytes = 216 * 1024;
  const double e50 = adapter.predict_uj(bytes, Frequency::mhz(50));
  const double e100 = adapter.predict_uj(bytes, Frequency::mhz(100));
  const double e300 = adapter.predict_uj(bytes, Frequency::mhz(300));
  EXPECT_GT(e50, e100);
  EXPECT_GT(e100, e300);
}

}  // namespace
}  // namespace uparc::manager
