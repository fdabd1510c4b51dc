// Robustness and determinism: hostile inputs must never crash a model, and
// identical seeds must produce bit-identical simulations.
#include <gtest/gtest.h>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "common/prng.hpp"
#include "core/system.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;

// ------------------------------------------------------------- ICAP fuzzing

class IcapFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(IcapFuzz, RandomWordStreamsNeverCrashThePort) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);

  Prng rng(GetParam());
  // Mix raw noise with plausible packet fragments so the FSM visits every
  // state, including mid-payload truncations and stray type-2 packets.
  for (int i = 0; i < 20'000 && !port.errored() && !port.done(); ++i) {
    u32 word;
    switch (rng.below(6)) {
      case 0: word = static_cast<u32>(rng.next()); break;
      case 1: word = bits::kSyncWord; break;
      case 2: word = bits::kNoopWord; break;
      case 3:
        word = bits::type1(static_cast<bits::Opcode>(rng.below(3)),
                           static_cast<bits::ConfigReg>(rng.below(13)),
                           static_cast<u32>(rng.below(64)));
        break;
      case 4: word = bits::type2(bits::Opcode::kWrite, static_cast<u32>(rng.below(4096))); break;
      default: word = static_cast<u32>(rng.below(16)); break;
    }
    port.write_word(word);
  }
  // Whatever happened, the port is in a defined state and reset() recovers.
  port.reset();
  EXPECT_EQ(port.state(), icap::IcapState::kPreSync);

  // And a clean bitstream still loads afterwards.
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();
  for (u32 w : bs.body) port.write_word(w);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(plane.contains(bs.frames));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcapFuzz, ::testing::Range<u64>(100, 112));

// --------------------------------------------------------- parser fuzzing

class ParserFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(ParserFuzz, MutatedBodiesParseOrFailCleanly) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  cfg.seed = GetParam();
  auto bs = bits::Generator(cfg).generate();

  Prng rng(GetParam() * 13 + 1);
  for (int trial = 0; trial < 40; ++trial) {
    Words mutated = bs.body;
    // 1-4 random word mutations anywhere in the body.
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<u32>(rng.next());
    }
    // Must not crash; either parses (possibly with CRC mismatch) or errors.
    auto parsed = bits::parse_body(bits::kVirtex5Sx50t, mutated);
    if (parsed.ok()) {
      // If it parsed, frames are structurally sound.
      for (const auto& frame : parsed.value().frames) {
        EXPECT_EQ(frame.data.size(), 41u);
      }
    } else {
      EXPECT_FALSE(parsed.error().message.empty());
    }
    // The linter reads the same packet stream: it reports a structural
    // error exactly when the parser rejects the body.
    const analysis::Report lint = analysis::lint_body(bits::kVirtex5Sx50t, mutated);
    bool structural = false;
    for (const analysis::Diagnostic& d : lint.diagnostics()) {
      structural = structural ||
                   (d.severity == analysis::Severity::kError &&
                    (d.rule == "bs.preamble.sync" || d.rule.rfind("bs.packet.", 0) == 0 ||
                     d.rule == "bs.fdri.alignment"));
    }
    EXPECT_EQ(structural, !parsed.ok()) << "trial " << trial << ":\n" << lint.render_text();
    // Relocation must fail cleanly or succeed, and never succeed on a body
    // the parser rejects.
    auto moved =
        bits::relocate_body(bits::kVirtex5Sx50t, mutated, bits::FrameAddress{0, 0, 1, 1, 0});
    if (!parsed.ok()) {
      EXPECT_FALSE(moved.ok()) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<u64>(200, 208));

// ------------------------------------------------------------- determinism

TEST(Determinism, IdenticalRunsProduceIdenticalResults) {
  auto run_once = [](u64 seed) {
    core::System sys;
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = 64_KiB;
    cfg.seed = seed;
    auto bs = bits::Generator(cfg).generate();
    (void)sys.set_frequency_blocking(Frequency::mhz(300));
    EXPECT_TRUE(sys.stage(bs).ok());
    auto r = sys.reconfigure_blocking();
    EXPECT_TRUE(r.success);
    return std::tuple{r.duration().ps(), r.energy_uj, sys.sim().events_executed(),
                      sys.icap().words_consumed()};
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

TEST(Determinism, CompressedModeIsDeterministicToo) {
  auto run_once = [] {
    core::System sys;
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = 500_KiB;
    cfg.seed = 9;
    auto bs = bits::Generator(cfg).generate();
    EXPECT_TRUE(sys.stage(bs).ok());
    auto r = sys.reconfigure_blocking();
    EXPECT_TRUE(r.success);
    return std::pair{r.duration().ps(), sys.uparc().staged_stored_bytes()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------- UReC hostile BRAM data

TEST(UrecRobustness, GarbageBramContentEndsInErrorNotHang) {
  core::System sys;
  Prng rng(31);
  // Fill the BRAM with garbage under a plausible mode word.
  auto& bram = sys.uparc().bram();
  const u32 words = 4096;
  bram.write_word(0, manager::BramLayout::make_header(false, words));
  for (u32 i = 1; i <= words; ++i) bram.write_word(i, static_cast<u32>(rng.next()));

  bool finished = false;
  sys.uparc().urec().start([&] { finished = true; });
  sys.sim().run();
  EXPECT_TRUE(finished);
  // Either the ICAP flagged a structural error or the stream simply never
  // desynced; both are defined outcomes.
  EXPECT_NE(sys.uparc().urec().state(), core::UrecState::kIdle);
}

TEST(UrecRobustness, CompressedGarbageSurfacesDecoderError) {
  core::System sys;
  auto& bram = sys.uparc().bram();
  // Claim compression, but store noise that is not a valid container.
  const u32 words = 512;
  bram.write_word(0, manager::BramLayout::make_header(true, words));
  Prng rng(77);
  for (u32 i = 1; i <= words; ++i) bram.write_word(i, static_cast<u32>(rng.next()));
  // Arm the decompressor the way UPaRC would for a genuine stream.
  sys.uparc().decompressor().arm_streaming(
      compress::make_streaming_decoder(compress::CodecId::kXMatchPro), 2048, words);
  sys.uparc().dyclogen().clock(clocking::ClockId::kDecompress).enable();

  bool finished = false;
  sys.uparc().urec().start([&] { finished = true; });
  sys.sim().run_until(sys.sim().now() + TimePs::from_ms(5));
  sys.uparc().dyclogen().clock(clocking::ClockId::kDecompress).disable();
  sys.sim().run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(sys.uparc().urec().state(), core::UrecState::kError);
}

// ------------------------------------------------- supply-gated clocking

namespace {
// Drives the simulation until the ICAP has consumed `words` (the stream is
// provably in flight), without overshooting the end of the run.
void run_until_streaming(core::System& sys, u64 words) {
  for (int i = 0; i < 1000 && sys.icap().words_consumed() < words; ++i) {
    sys.sim().run_until(sys.sim().now() + TimePs::from_us(10));
  }
  ASSERT_GE(sys.icap().words_consumed(), words);
}
}  // namespace

TEST(SupplyGate, LockLossStallsTheStreamAndRelockResumesIt) {
  core::System sys;
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 64_KiB;
  auto bs = bits::Generator(cfg).generate();
  ASSERT_TRUE(sys.stage(bs).ok());
  std::optional<ctrl::ReconfigResult> got;
  sys.uparc().reconfigure([&](const ctrl::ReconfigResult& r) { got = r; });
  run_until_streaming(sys, 1000);

  auto& dcm = sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig);
  ASSERT_TRUE(dcm.locked());
  dcm.drop_lock();
  auto& clk = sys.uparc().dyclogen().clock(clocking::ClockId::kReconfig);
  EXPECT_TRUE(clk.enabled());    // the consumer still wants edges...
  EXPECT_FALSE(clk.running());   // ...but the supply is gated: no stale edges
  const u64 words_at_stall = sys.icap().words_consumed();
  sys.sim().run();  // queue drains with the stream frozen mid-flight
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(sys.icap().words_consumed(), words_at_stall);

  // Re-locking at the same frequency re-supplies CLK_2 and the stream picks
  // up exactly where it stalled.
  (void)sys.uparc().set_frequency(sys.uparc().dyclogen().frequency(clocking::ClockId::kReconfig));
  sys.sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->success);
  EXPECT_GT(sys.icap().words_consumed(), words_at_stall);
}

TEST(UrecRobustness, AbortUnsticksAClockGatedStream) {
  core::System sys;
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 64_KiB;
  auto bs = bits::Generator(cfg).generate();
  ASSERT_TRUE(sys.stage(bs).ok());
  std::optional<ctrl::ReconfigResult> got;
  sys.uparc().reconfigure([&](const ctrl::ReconfigResult& r) { got = r; });
  run_until_streaming(sys, 1000);

  sys.uparc().dyclogen().dcm(clocking::ClockId::kReconfig).drop_lock();
  sys.sim().run();
  ASSERT_FALSE(got.has_value());  // stalled: nothing left to execute

  // What the RecoveryManager's watchdog does: abort the FSM to unwind the
  // control path and deliver a classified failure.
  sys.uparc().urec().abort(ErrorCause::kTimeout, "watchdog: cycle budget exhausted");
  sys.sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->success);
  EXPECT_EQ(got->cause, ErrorCause::kTimeout);
}

}  // namespace
}  // namespace uparc
