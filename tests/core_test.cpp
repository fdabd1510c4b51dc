// Unit tests for the core: UReC, the decompressor unit, the timing model,
// resources, and the UPaRC top level.
#include <gtest/gtest.h>

#include "core/resources.hpp"
#include "core/system.hpp"

namespace uparc::core {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed = 1) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  return bits::Generator(cfg).generate();
}

// ---------------------------------------------------------------- UReC FSM

class UrecFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  icap::ConfigPlane plane{sim, "plane", bits::kVirtex5Sx50t};
  icap::Icap port{sim, "icap", plane};
  sim::Clock clk2{sim, "clk2", Frequency::mhz(100)};
  mem::Bram bram{sim, "bram", 256_KiB};
  UReC urec{sim, "urec", clk2, bram, port, nullptr};
};

TEST_F(UrecFixture, StreamsOneWordPerCycle) {
  auto bs = make_bs(16_KiB);
  bram.write_word(0, manager::BramLayout::make_header(false, static_cast<u32>(bs.body.size())));
  bram.load_words(bs.body, 1);

  bool finished = false;
  TimePs finish_time{};
  urec.start([&] {
    finished = true;
    finish_time = sim.now();
  });
  sim.run();

  ASSERT_TRUE(finished);
  EXPECT_EQ(urec.state(), UrecState::kFinished);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(plane.contains(bs.frames));
  // Header read + N stream cycles at 10 ns each.
  EXPECT_EQ(finish_time.ps(), (1 + bs.body.size()) * 10'000);
  // EN gating: clock off after Finish.
  EXPECT_FALSE(clk2.enabled());
  EXPECT_EQ(urec.words_to_icap(), bs.body.size());
  // The FDRI run streams in a burst; each word still counts one read and
  // one cycle.
  EXPECT_GT(sim.burst_edges(), 0u);
  EXPECT_EQ(bram.reads(), 1 + bs.body.size());
  EXPECT_EQ(urec.active_cycles(), 1 + bs.body.size());
}

TEST_F(UrecFixture, ABramReadTapSeesEveryWordSoNothingBursts) {
  auto bs = make_bs(16_KiB);
  bram.write_word(0, manager::BramLayout::make_header(false, static_cast<u32>(bs.body.size())));
  bram.load_words(bs.body, 1);
  u64 tapped = 0;
  bram.set_read_tap([&](std::size_t, u32 value) {
    ++tapped;
    return value;
  });

  TimePs finish_time{};
  urec.start([&] { finish_time = sim.now(); });
  sim.run();

  EXPECT_EQ(urec.state(), UrecState::kFinished);
  EXPECT_TRUE(plane.contains(bs.frames));
  EXPECT_EQ(tapped, 1 + bs.body.size());
  EXPECT_EQ(sim.burst_edges(), 0u);
  EXPECT_EQ(finish_time.ps(), (1 + bs.body.size()) * 10'000);
}

TEST_F(UrecFixture, ErrorsOnEmptyPayload) {
  bram.write_word(0, manager::BramLayout::make_header(false, 0));
  bool finished = false;
  urec.start([&] { finished = true; });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(urec.state(), UrecState::kError);
  EXPECT_NE(urec.error_message().find("empty payload"), std::string::npos);
}

TEST_F(UrecFixture, ErrorsOnOversizedLengthField) {
  bram.write_word(0, manager::BramLayout::make_header(false, 0x00FFFFFF));
  bool finished = false;
  urec.start([&] { finished = true; });
  sim.run();
  EXPECT_EQ(urec.state(), UrecState::kError);
}

TEST_F(UrecFixture, ErrorsOnCompressedWithoutDecompressor) {
  bram.write_word(0, manager::BramLayout::make_header(true, 100));
  bool finished = false;
  urec.start([&] { finished = true; });
  sim.run();
  EXPECT_EQ(urec.state(), UrecState::kError);
  EXPECT_NE(urec.error_message().find("no decompressor"), std::string::npos);
}

TEST_F(UrecFixture, StartWhileBusyThrows) {
  auto bs = make_bs(8_KiB);
  bram.write_word(0, manager::BramLayout::make_header(false, static_cast<u32>(bs.body.size())));
  bram.load_words(bs.body, 1);
  urec.start([] {});
  EXPECT_THROW(urec.start([] {}), std::logic_error);
  sim.run();
}

TEST_F(UrecFixture, PropagatesIcapErrors) {
  // Malformed body: bare type-2 after sync.
  Words body = {bits::kSyncWord, bits::type2(bits::Opcode::kWrite, 4), 1, 2, 3, 4};
  bram.write_word(0, manager::BramLayout::make_header(false, static_cast<u32>(body.size())));
  bram.load_words(body, 1);
  bool finished = false;
  urec.start([&] { finished = true; });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(urec.state(), UrecState::kError);
  EXPECT_NE(urec.error_message().find("ICAP"), std::string::npos);
}

// --------------------------------------------------------- DecompressorUnit

TEST(DecompressorUnitTest, SustainsRatedThroughput) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(126));
  compress::HardwareProfile hw;  // X-MatchPRO: 2 words/cycle
  DecompressorUnit unit(sim, "decomp", clk3, hw, 16, 0);

  Words output(10'000, 0xCAFEBABEu);
  unit.arm(output, 2'500);  // 4:1 compression
  // Saturate the input and drain the output as fast as it appears.
  std::size_t fed = 0;
  std::size_t drained = 0;
  clk3.on_rising([&] {
    while (fed < 2'500 && unit.can_accept_input()) {
      unit.push_input(0x11111111u);
      ++fed;
    }
    while (unit.has_output()) {
      EXPECT_EQ(unit.pop_output(), 0xCAFEBABEu);
      ++drained;
    }
    if (unit.stream_done()) clk3.disable();
  });
  const TimePs t0 = sim.now();
  clk3.enable();
  sim.run();

  EXPECT_EQ(drained, 10'000u);
  // 2 words/cycle at 126 MHz => ~5000 cycles => ~39.7 us.
  const double us = (sim.now() - t0).us();
  EXPECT_NEAR(us, 5000.0 / 126.0, 2.0);
}

TEST(DecompressorUnitTest, StallsWhenInputStarved) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(100));
  DecompressorUnit unit(sim, "decomp", clk3, compress::HardwareProfile{}, 16, 0);
  Words output(100, 7u);
  unit.arm(output, 100);  // 1:1 "compression" — input-bound

  std::size_t drained = 0;
  int cycle = 0;
  clk3.on_rising([&] {
    // Feed one input word every 4 cycles only.
    if (cycle % 4 == 0 && unit.can_accept_input() && cycle / 4 < 100) {
      unit.push_input(1);
    }
    ++cycle;
    while (unit.has_output()) {
      (void)unit.pop_output();
      ++drained;
    }
    if (unit.stream_done() || cycle > 2000) clk3.disable();
  });
  clk3.enable();
  sim.run();
  EXPECT_EQ(drained, 100u);
  EXPECT_GT(unit.stall_cycles(), 100u);  // starved most cycles
}

TEST(DecompressorUnitTest, RespectsOutputBackpressure) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(100));
  DecompressorUnit unit(sim, "decomp", clk3, compress::HardwareProfile{}, 4, 0);
  Words output(100, 9u);
  unit.arm(output, 25);

  // Keep input saturated but never drain the output: production must halt
  // at the FIFO depth and the stall counter must grow.
  int cycles = 0;
  clk3.on_rising([&] {
    while (unit.can_accept_input()) unit.push_input(0);
    if (++cycles == 50) clk3.disable();
  });
  clk3.enable();
  sim.run();
  EXPECT_EQ(unit.produced(), 4u);  // output FIFO depth
  EXPECT_FALSE(unit.stream_done());
  EXPECT_GT(unit.stall_cycles(), 30u);
}

TEST(DecompressorUnitTest, InputFifoOverflowIsAModelBug) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(100));
  DecompressorUnit unit(sim, "decomp", clk3, compress::HardwareProfile{}, 4, 0);
  unit.arm(Words(10, 1u), 10);
  for (int i = 0; i < 4; ++i) unit.push_input(0);
  EXPECT_FALSE(unit.can_accept_input());
  EXPECT_THROW(unit.push_input(0), std::logic_error);
}

TEST(DecompressorUnitTest, ArmRejectsEmptyStream) {
  sim::Simulation sim;
  sim::Clock clk3(sim, "clk3", Frequency::mhz(100));
  DecompressorUnit unit(sim, "decomp", clk3, compress::HardwareProfile{});
  EXPECT_THROW(unit.arm(Words{}, 10), std::invalid_argument);
}

// -------------------------------------------------------------- TimingModel

TEST(TimingModelTest, PaperFrequenciesByFamily) {
  TimingModel v5(bits::kVirtex5Sx50t);
  TimingModel v6(bits::kVirtex6Lx240t);
  // 362.5 MHz reliable on V5 at default conditions, not on V6.
  EXPECT_TRUE(v5.is_reliable(Frequency::mhz(362.5)));
  EXPECT_FALSE(v6.is_reliable(Frequency::mhz(362.5)));
  // "a few MHz lower" on V6.
  const double delta = v5.max_reliable().in_mhz() - v6.max_reliable().in_mhz();
  EXPECT_GT(delta, 2.0);
  EXPECT_LT(delta, 15.0);
}

TEST(TimingModelTest, DeratesWithTemperatureAndVoltage) {
  TimingModel v5(bits::kVirtex5Sx50t);
  OperatingConditions hot{1.0, 85.0};
  OperatingConditions low_v{0.95, 20.0};
  EXPECT_LT(v5.max_reliable(hot), v5.max_reliable());
  EXPECT_LT(v5.max_reliable(low_v), v5.max_reliable());
  EXPECT_FALSE(v5.is_reliable(Frequency::mhz(362.5), hot));
}

TEST(TimingModelTest, SampleSpreadIsDeterministicAndBounded) {
  TimingModel a(bits::kVirtex5Sx50t, 42);
  TimingModel b(bits::kVirtex5Sx50t, 42);
  TimingModel c(bits::kVirtex5Sx50t, 43);
  EXPECT_EQ(a.max_reliable().in_hz(), b.max_reliable().in_hz());
  EXPECT_NE(a.max_reliable().in_hz(), c.max_reliable().in_hz());
  EXPECT_NEAR(a.max_reliable().in_mhz(), a.family_ceiling().in_mhz(), 3.5);
}

// ---------------------------------------------------------------- Resources

TEST(ResourcesTest, Table2Values) {
  EXPECT_EQ(resources(Block::kDyCloGen).slices_v5, 24u);
  EXPECT_EQ(resources(Block::kDyCloGen).slices_v6, 18u);
  EXPECT_EQ(resources(Block::kUReC).slices_v5, 26u);
  EXPECT_EQ(resources(Block::kUReC).slices_v6, 26u);
  EXPECT_EQ(resources(Block::kDecompressorXMatchPro).slices_v5, 1035u);
  EXPECT_EQ(resources(Block::kDecompressorXMatchPro).slices_v6, 900u);
  EXPECT_TRUE(resources(Block::kUReC).from_paper);
  EXPECT_FALSE(resources(Block::kMicroBlazeManager).from_paper);
  EXPECT_EQ(uparc_controller_slices_v5(), 50u);
  EXPECT_EQ(all_resources().size(), 9u);
}

// ------------------------------------------------------------------- UPaRC

class UparcFixture : public ::testing::Test {
 protected:
  System sys;
};

TEST_F(UparcFixture, UncompressedReconfigurationDeliversFrames) {
  auto bs = make_bs(64_KiB);
  ASSERT_TRUE(sys.stage(bs).ok());
  EXPECT_FALSE(sys.uparc().staged_compressed());
  EXPECT_EQ(sys.uparc().kind(), "UPaRC_i");
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
  EXPECT_EQ(r.payload_bytes, bs.body.size() * 4);
}

TEST_F(UparcFixture, PaperHeadlineBandwidthAt362_5) {
  auto bs = make_bs(247_KiB);
  auto md = sys.set_frequency_blocking(Frequency::mhz(362.5));
  ASSERT_TRUE(md.has_value());
  EXPECT_EQ(md->m, 29u);
  EXPECT_EQ(md->d, 8u);
  ASSERT_TRUE(sys.stage(bs).ok());
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  // Table III: 1433 MB/s (99% of the 1450 MB/s theoretical).
  EXPECT_NEAR(r.bandwidth().mb_per_sec(), 1433.0, 15.0);
}

TEST_F(UparcFixture, CompressedModeForOversizedBitstreams) {
  auto bs = make_bs(600_KiB, 3);
  ASSERT_TRUE(sys.stage(bs).ok());
  EXPECT_TRUE(sys.uparc().staged_compressed());
  EXPECT_EQ(sys.uparc().kind(), "UPaRC_ii");
  EXPECT_LT(sys.uparc().staged_stored_bytes(), 256_KiB);
  (void)sys.set_frequency_blocking(Frequency::mhz(255));
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
  // Paper: ~1008 MB/s decompressor-limited (we synthesize 125 MHz for CLK_3).
  EXPECT_NEAR(r.bandwidth().mb_per_sec(), 1000.0, 30.0);
}

TEST_F(UparcFixture, CompressedModeCapsReconfigClock) {
  auto bs = make_bs(600_KiB, 3);
  ASSERT_TRUE(sys.stage(bs).ok());
  EXPECT_NEAR(sys.uparc().max_frequency().in_mhz(), 255.0, 1e-9);
  auto md = sys.set_frequency_blocking(Frequency::mhz(362.5));
  ASSERT_TRUE(md.has_value());
  EXPECT_LE(md->f_out.in_mhz(), 255.0 + 1e-9);
}

TEST_F(UparcFixture, HandlesMaxCompressibleBitstream) {
  // Paper: 256 KB BRAM holds up to ~992 KB compressed (~40% of the device).
  auto bs = make_bs(992_KiB, 11);
  auto st = sys.stage(bs);
  ASSERT_TRUE(st.ok()) << st.error().message;
  auto r = sys.reconfigure_blocking();
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST_F(UparcFixture, StageFailureWhenIncompressiblyLarge) {
  // Near-random content barely compresses; 2 MB cannot fit 256 KB.
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 2_MiB;
  cfg.complexity = 1.0;
  cfg.tuning = bits::ContentTuning{};  // defaults are much less compressible
  cfg.tuning->noise_word_p = 1.0;
  cfg.tuning->zero_seg_p = 0.0;
  cfg.tuning->fill_seg_p = 0.0;
  cfg.tuning->repeat_seg_p = 0.0;
  cfg.tuning->new_template_p = 1.0;
  cfg.tuning->mutate_p = 0.9;
  auto bs = bits::Generator(cfg).generate();
  auto st = sys.stage(bs);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("even compressed"), std::string::npos);
}

TEST_F(UparcFixture, ReconfigureWithoutStageFails) {
  auto r = sys.reconfigure_blocking();
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("without stage"), std::string::npos);
}

TEST_F(UparcFixture, ReconfigureDefersUntilPreloadCompletes) {
  auto bs = make_bs(64_KiB);
  ASSERT_TRUE(sys.stage(bs).ok());
  // Immediately reconfigure — the preload copy is still in flight; the
  // launch must wait for it rather than stream a half-filled BRAM.
  auto r = sys.reconfigure_blocking();
  EXPECT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST_F(UparcFixture, AdaptMinPowerMeetsDeadline) {
  auto bs = make_bs(216_KiB);
  ASSERT_TRUE(sys.stage(bs).ok());
  auto plan = sys.adapt_blocking(manager::FrequencyPolicy::kMinPowerDeadline,
                                 TimePs::from_us(600));
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->predicted_time, TimePs::from_us(600));
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_LE(r.duration(), TimePs::from_us(600));
  // And the chosen clock is far below max: power-aware, not max-speed.
  EXPECT_LT(plan->choice.f_out.in_mhz(), 200.0);
}

TEST_F(UparcFixture, EnergyAccountingMatchesRail) {
  auto bs = make_bs(216_KiB);
  (void)sys.set_frequency_blocking(Frequency::mhz(100));
  ASSERT_TRUE(sys.stage(bs).ok());
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_GT(r.energy_uj, 0.0);
  EXPECT_NEAR(r.energy_uj, sys.rail()->energy_uj(r.start, r.end), 1e-9);
}

TEST_F(UparcFixture, SwapDecompressorInstallsNewCodec) {
  EXPECT_EQ(sys.uparc().codec(), compress::CodecId::kXMatchPro);
  auto r = sys.swap_decompressor_blocking(compress::CodecId::kRle);
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(sys.uparc().codec(), compress::CodecId::kRle);
  // CLK_3 retuned to the RLE decoder's 200 MHz F_max (<= as synthesized).
  const double clk3 =
      sys.uparc().dyclogen().frequency(clocking::ClockId::kDecompress).in_mhz();
  EXPECT_LE(clk3, 200.0 + 1e-9);
  EXPECT_GT(clk3, 190.0);
  // And the swapped-in decompressor still works end to end.
  auto bs = make_bs(600_KiB, 3);
  ASSERT_TRUE(sys.stage(bs).ok());
  auto r2 = sys.reconfigure_blocking();
  EXPECT_TRUE(r2.success) << r2.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST_F(UparcFixture, Fig7PowerLevelsOnTheRail) {
  auto bs = make_bs(216_KiB);
  for (double mhz : {50.0, 100.0, 200.0, 300.0}) {
    (void)sys.set_frequency_blocking(Frequency::mhz(mhz));
    ASSERT_TRUE(sys.stage(bs).ok());
    auto r = sys.reconfigure_blocking();
    ASSERT_TRUE(r.success) << r.error;
    // Peak draw during the reconfiguration matches Fig. 7's plateau.
    const double plateau = sys.rail()->peak_mw(r.start, r.end);
    EXPECT_NEAR(plateau, power::fig7_total_mw(Frequency::mhz(mhz)), 1.0) << mhz;
  }
}

TEST(UparcConfigTest, Virtex6LimitsFrequency) {
  SystemConfig cfg;
  cfg.uparc.device = bits::kVirtex6Lx240t;
  System sys(cfg);
  auto md = sys.set_frequency_blocking(Frequency::mhz(362.5));
  ASSERT_TRUE(md.has_value());
  EXPECT_LT(md->f_out.in_mhz(), 362.5);  // V6: "a few MHz lower"
}

TEST(UparcConfigTest, RejectsUnknownCodec) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "p", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "i", plane);
  UparcConfig cfg;
  cfg.codec = static_cast<compress::CodecId>(99);
  EXPECT_THROW(Uparc(sim, "u", port, cfg, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace uparc::core
