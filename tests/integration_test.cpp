// Cross-module integration tests: full systems, repeated reconfigurations,
// mixed controllers on one plane, file-level round trips through the whole
// stack.
#include <gtest/gtest.h>

#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"
#include "core/system.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed,
                               bits::FrameAddress start = {0, 0, 0, 10, 0}) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.start_address = start;
  return bits::Generator(cfg).generate();
}

TEST(Integration, FileToConfigPlaneThroughEveryLayer) {
  // Generate -> serialize to .bit -> parse -> preload from file -> stream
  // through UReC -> verify the plane matches the original frames.
  auto bs = make_bs(48_KiB, 7);
  Bytes file = bits::to_file(bs);

  // Host-side sanity: the file parses to the same frames.
  auto parsed = bits::parse_file(file);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().bitstream.frames.size(), bs.frames.size());

  core::System sys;
  bool preloaded = false;
  auto st = sys.uparc().preloader().preload_body(parsed.value().bitstream.body,
                                                 [&] { preloaded = true; });
  ASSERT_TRUE(st.ok()) << st.error().message;
  sys.sim().run();
  ASSERT_TRUE(preloaded);

  // Drive UReC directly (bypassing stage(), which re-preloads).
  bool finished = false;
  sys.uparc().urec().start([&] { finished = true; });
  sys.sim().run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(sys.uparc().urec().state(), core::UrecState::kFinished);
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST(Integration, BackToBackReconfigurationsOfDifferentModules) {
  core::System sys;
  (void)sys.set_frequency_blocking(Frequency::mhz(300));

  std::vector<bits::PartialBitstream> modules;
  for (u64 i = 0; i < 5; ++i) {
    modules.push_back(
        make_bs(32_KiB + i * 16_KiB, 100 + i,
                bits::FrameAddress{0, 0, static_cast<u32>(i), 10, 0}));
  }
  for (const auto& m : modules) {
    ASSERT_TRUE(sys.stage(m).ok());
    auto r = sys.reconfigure_blocking();
    ASSERT_TRUE(r.success) << r.error;
  }
  // All five modules coexist in the plane (distinct rows).
  for (const auto& m : modules) EXPECT_TRUE(sys.plane().contains(m.frames));
}

TEST(Integration, FrequencyRetuneBetweenReconfigurations) {
  core::System sys;
  auto bs = make_bs(64_KiB, 9);
  double last_us = 0;
  for (double mhz : {100.0, 200.0, 362.5}) {
    ASSERT_TRUE(sys.set_frequency_blocking(Frequency::mhz(mhz)).has_value());
    ASSERT_TRUE(sys.stage(bs).ok());
    auto r = sys.reconfigure_blocking();
    ASSERT_TRUE(r.success) << r.error;
    if (last_us > 0) {
      EXPECT_LT(r.duration().us(), last_us);  // faster each step
    }
    last_us = r.duration().us();
  }
}

TEST(Integration, MixedControllersShareOnePlane) {
  core::System sys;
  auto region_a = make_bs(32_KiB, 21, bits::FrameAddress{0, 0, 0, 20, 0});
  auto region_b = make_bs(32_KiB, 22, bits::FrameAddress{0, 0, 2, 40, 0});

  // Region A through the slow baseline, region B through UPaRC.
  auto xps = sys.make_baseline("xps_hwicap_cached");
  auto ra = sys.run_controller_blocking(*xps, region_a);
  ASSERT_TRUE(ra.success) << ra.error;

  ASSERT_TRUE(sys.stage(region_b).ok());
  auto rb = sys.reconfigure_blocking();
  ASSERT_TRUE(rb.success) << rb.error;

  EXPECT_TRUE(sys.plane().contains(region_a.frames));
  EXPECT_TRUE(sys.plane().contains(region_b.frames));
  EXPECT_GT(ra.duration().ms(), rb.duration().ms() * 10);  // UPaRC >>10x faster
}

TEST(Integration, CorruptedPreloadIsCaughtByIcapCrc) {
  core::System sys;
  auto bs = make_bs(32_KiB, 13);
  ASSERT_TRUE(sys.stage(bs).ok());
  sys.sim().run();  // let the preload finish
  // Flip one configuration bit inside the BRAM (model of an SEU in the
  // bitstream store between preload and reconfiguration).
  const std::size_t victim = 1 + bs.fdri_offset + 100;
  sys.uparc().bram().write_word(victim, sys.uparc().bram().read_word(victim) ^ 0x1);

  auto r = sys.reconfigure_blocking();
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.error.find("CRC"), std::string::npos);
}

TEST(Integration, EnergyScalesWithBitstreamSize) {
  core::System sys;
  (void)sys.set_frequency_blocking(Frequency::mhz(200));
  double e_small = 0, e_large = 0;
  {
    ASSERT_TRUE(sys.stage(make_bs(32_KiB, 1)).ok());
    e_small = sys.reconfigure_blocking().energy_uj;
  }
  {
    ASSERT_TRUE(sys.stage(make_bs(128_KiB, 2)).ok());
    e_large = sys.reconfigure_blocking().energy_uj;
  }
  EXPECT_GT(e_large, e_small * 3.0);
  EXPECT_LT(e_large, e_small * 5.0);  // ~4x payload => ~4x energy
}

TEST(Integration, V6SystemRunsCompleteFlow) {
  core::SystemConfig cfg;
  cfg.uparc.device = bits::kVirtex6Lx240t;
  core::System sys(cfg);

  bits::GeneratorConfig gen;
  gen.device = bits::kVirtex6Lx240t;
  gen.target_body_bytes = 64_KiB;
  auto bs = bits::Generator(gen).generate();

  ASSERT_TRUE(sys.stage(bs).ok());
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST(Integration, StageWhileBusyIsRejected) {
  core::System sys;
  auto bs = make_bs(64_KiB, 1);
  ASSERT_TRUE(sys.stage(bs).ok());
  std::optional<ctrl::ReconfigResult> result;
  sys.uparc().reconfigure([&](const ctrl::ReconfigResult& r) { result = r; });
  // Drive the sim until the UReC is actually streaming, then try to stage.
  bool rejected_mid_flight = false;
  while (sys.sim().step()) {
    if (sys.uparc().urec().busy() && !rejected_mid_flight) {
      auto st = sys.stage(bs);
      EXPECT_FALSE(st.ok());
      rejected_mid_flight = true;
    }
  }
  EXPECT_TRUE(rejected_mid_flight);
  ASSERT_TRUE(result && result->success);
}

}  // namespace
}  // namespace uparc
