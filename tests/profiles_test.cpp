// Tests for the manager implementation profiles (§III-A).
#include <gtest/gtest.h>

#include "core/system.hpp"

namespace uparc::manager {
namespace {

using namespace uparc::literals;

TEST(Profiles, HardwareFsmIsCheaperEverywhere) {
  const ManagerProfile mb = microblaze_profile();
  const ManagerProfile fsm = hardware_fsm_profile();
  EXPECT_LT(fsm.costs.control_launch, mb.costs.control_launch);
  EXPECT_LT(fsm.costs.copy_loop_word, mb.costs.copy_loop_word);
  EXPECT_LT(fsm.control_burst_mw, mb.control_burst_mw);
  EXPECT_LT(fsm.active_wait_mw, mb.active_wait_mw);
  EXPECT_EQ(fsm.name, "hardware_fsm");
}

TEST(Profiles, MicroBlazeDefaultsMatchTheCalibration) {
  const ManagerProfile mb = microblaze_profile();
  EXPECT_NEAR(mb.active_wait_mw, power::kManagerActiveWaitMw, 1e-12);
  EXPECT_NEAR(mb.control_burst_mw, power::kManagerControlBurstMw, 1e-12);
  EXPECT_EQ(mb.costs.control_launch, 125u);  // the Fig. 5 1.25 us anchor
  EXPECT_NEAR(mb.clock.in_mhz(), 100.0, 1e-12);
}

TEST(Profiles, FsmSystemPreloadsEightTimesFaster) {
  auto bs = [] {
    bits::GeneratorConfig g;
    g.target_body_bytes = 64_KiB;
    return bits::Generator(g).generate();
  }();

  TimePs durations[2];
  int i = 0;
  for (const auto& profile : {microblaze_profile(), hardware_fsm_profile()}) {
    core::SystemConfig cfg;
    cfg.uparc.manager = profile;
    core::System sys(cfg);
    EXPECT_TRUE(sys.stage(bs).ok());
    sys.sim().run();
    durations[i++] = sys.uparc().preloader().last_duration();
  }
  // 8 cycles/word vs 1 cycle/word.
  EXPECT_NEAR(static_cast<double>(durations[0].ps()) / durations[1].ps(), 8.0, 0.1);
}

TEST(Profiles, FsmSystemReconfiguresWithLowerRailDraw) {
  auto bs = [] {
    bits::GeneratorConfig g;
    g.target_body_bytes = 64_KiB;
    return bits::Generator(g).generate();
  }();

  double peaks[2];
  int i = 0;
  for (const auto& profile : {microblaze_profile(), hardware_fsm_profile()}) {
    core::SystemConfig cfg;
    cfg.uparc.manager = profile;
    core::System sys(cfg);
    (void)sys.set_frequency_blocking(Frequency::mhz(100));
    EXPECT_TRUE(sys.stage(bs).ok());
    auto r = sys.reconfigure_blocking();
    EXPECT_TRUE(r.success) << r.error;
    peaks[i++] = sys.rail()->peak_mw(r.start, r.end);
  }
  // MicroBlaze: datapath + 107 mW wait; FSM: datapath + 1.5 mW.
  EXPECT_NEAR(peaks[0] - peaks[1], power::kManagerActiveWaitMw - 1.5, 2.0);
}

TEST(Profiles, ControlOverheadScalesWithProfile) {
  core::SystemConfig cfg;
  cfg.uparc.manager = hardware_fsm_profile();
  core::System fsm_sys(cfg);
  core::System mb_sys;

  auto bs = [] {
    bits::GeneratorConfig g;
    g.target_body_bytes = 6656;  // small: overhead-dominated
    return bits::Generator(g).generate();
  }();
  (void)mb_sys.set_frequency_blocking(Frequency::mhz(362.5));
  (void)fsm_sys.set_frequency_blocking(Frequency::mhz(362.5));
  EXPECT_TRUE(mb_sys.stage(bs).ok());
  EXPECT_TRUE(fsm_sys.stage(bs).ok());
  auto mb_r = mb_sys.reconfigure_blocking();
  auto fsm_r = fsm_sys.reconfigure_blocking();
  ASSERT_TRUE(mb_r.success && fsm_r.success);
  // The FSM launch overhead (8 cycles vs 125) lifts small-bitstream
  // efficiency: ~1.2 us faster on a ~4.6 us transfer.
  EXPECT_GT(fsm_r.bandwidth().mb_per_sec(), mb_r.bandwidth().mb_per_sec() * 1.15);
}

}  // namespace
}  // namespace uparc::manager
