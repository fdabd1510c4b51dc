// Robustness and determinism: hostile inputs must never crash a model, and
// identical seeds must produce bit-identical simulations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <tuple>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "common/prng.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "txn/stack.hpp"

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
    bits::PartialBitstream image;
    image.body = mutated;
    auto moved = bits::relocate(image, bits::FrameAddress{0, 0, 1, 1, 0});
    if (!parsed.ok()) {
      EXPECT_FALSE(moved.ok()) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<u64>(200, 208));

// ------------------------------------------------------ ICAP differential
//
// The ICAP model decodes the packet stream on its own, word by word: it is
// the device the host reader is checked against. Mutated bodies (the
// ParserFuzz scheme) stream through core::System with the lint gate off,
// once with inline clock edges and once with one kernel event per edge.
// The two runs must agree with each other, and the ICAP must agree with
// walk_packets on the structural verdict, the frames and the CRC verdict.
// Every fourth body streams through chaos-rate fault taps instead, so the
// two clock paths are compared on tapped bursts too; a faulted stream is
// no longer the body, so only the two runs are compared.

namespace {

/// One System-level run of a body.
struct IcapRun {
  std::unique_ptr<core::System> sys;
  std::unique_ptr<fault::FaultInjector> inj;  ///< armed on a faulted run
  ctrl::ReconfigResult result;
  u64 edges = 0;  ///< kernel events plus inlined edges
  u64 bursts = 0;

  [[nodiscard]] const icap::Icap& port() const { return sys->icap(); }
};

IcapRun stream_body(const bits::Device& device, const Words& body, bool inline_edges,
                    const fault::FaultPlan* faults = nullptr) {
  core::SystemConfig cfg;
  cfg.uparc.device = device;
  cfg.uparc.lint_gate = false;
  IcapRun run;
  run.sys = std::make_unique<core::System>(cfg);
  run.sys->sim().set_inline_edges(inline_edges);
  if (faults != nullptr) {
    run.inj = std::make_unique<fault::FaultInjector>(run.sys->sim(), "inj", *faults);
    run.inj->arm(run.sys->uparc(), run.sys->icap());
  }
  bits::PartialBitstream bs;
  bs.body = body;
  const Status staged = run.sys->stage(bs);
  // A faulted preload may be torn; the stage then reports it.
  EXPECT_TRUE(staged.ok() || faults != nullptr);
  if (staged.ok()) run.result = run.sys->reconfigure_blocking();
  run.edges = run.sys->sim().events_executed() + run.sys->sim().inlined_edges();
  run.bursts = run.sys->sim().burst_edges();
  return run;
}

struct AcceptAll final : bits::PacketVisitor {
  bool on_write(const bits::PacketWrite&) override { return true; }
};

/// walk_packets' structural verdict: synced, no defect, desynced.
bool walker_accepts(WordsView body) {
  AcceptAll visitor;
  const bits::PacketWalk walk = bits::walk_packets(body, visitor);
  return walk.synced && !walk.defect && walk.desynced;
}

bool lint_reports(const bits::Device& device, WordsView body, std::string_view rule) {
  const analysis::Report lint = analysis::lint_body(device, body);
  for (const analysis::Diagnostic& d : lint.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

/// A fault plan both runs of a body stream under, and what the inline
/// runs did with it.
struct Faulted {
  fault::FaultPlan plan;
  u64 bursts = 0;
  u64 fires = 0;
};

/// Checks one body; returns false (after reporting) on the first mismatch.
bool icap_agrees(const bits::Device& device, const Words& body, int trial,
                 Faulted* faulted = nullptr) {
  const fault::FaultPlan* faults = faulted != nullptr ? &faulted->plan : nullptr;
  const IcapRun inl = stream_body(device, body, true, faults);
  const IcapRun ref = stream_body(device, body, false, faults);
  const icap::Icap& a = inl.port();
  const icap::Icap& b = ref.port();
  // (a) the two clock paths are indistinguishable.
  EXPECT_EQ(inl.result.success, ref.result.success) << "trial " << trial;
  EXPECT_EQ(inl.result.error, ref.result.error) << "trial " << trial;
  EXPECT_EQ(inl.result.cause, ref.result.cause) << "trial " << trial;
  EXPECT_EQ(inl.result.end, ref.result.end) << "trial " << trial;
  EXPECT_EQ(inl.edges, ref.edges) << "trial " << trial;
  EXPECT_EQ(a.words_consumed(), b.words_consumed()) << "trial " << trial;
  EXPECT_EQ(a.frames_committed(), b.frames_committed()) << "trial " << trial;
  EXPECT_TRUE(inl.sys->plane().same_frames(ref.sys->plane())) << "trial " << trial;
  EXPECT_EQ(ref.bursts, 0u) << "trial " << trial;
  if (faulted != nullptr) {
    for (std::size_t site = 0; site < fault::kFaultSiteCount; ++site) {
      const auto s = static_cast<fault::FaultSite>(site);
      EXPECT_EQ(inl.inj->fires(s), ref.inj->fires(s)) << "trial " << trial << " " << to_string(s);
    }
    faulted->bursts += inl.bursts;
    faulted->fires += inl.inj->total_fires();
    return !::testing::Test::HasFailure();
  }

  // (b) the device accepts exactly what the host reader accepts, except
  // for its two semantic rejections, which lint reports.
  const bool icap_accepts = a.done() && !a.errored();
  const bool semantic_reject =
      a.errored() &&
      ((a.error_cause() == ErrorCause::kIcapDeviceMismatch &&
        lint_reports(device, body, "bs.idcode.mismatch")) ||
       (a.error_message() == "FDRI write without WCFG" &&
        lint_reports(device, body, "bs.fdri.no-wcfg")));
  if (!semantic_reject) {
    EXPECT_EQ(icap_accepts, walker_accepts(body))
        << "trial " << trial << ": ICAP " << (a.errored() ? a.error_message() : "no error");
  }

  // (c) both accept: the plane holds parse_body's frames, and the CRC
  // verdicts agree.
  if (icap_accepts && walker_accepts(body)) {
    const auto parsed = bits::parse_body(device, body);
    EXPECT_TRUE(parsed.ok()) << "trial " << trial;
    if (parsed.ok()) {
      EXPECT_EQ(a.frames_committed(), parsed.value().frames.size()) << "trial " << trial;
      EXPECT_TRUE(inl.sys->plane().contains(parsed.value().frames)) << "trial " << trial;
      EXPECT_EQ(a.crc_checked(), parsed.value().crc_checked) << "trial " << trial;
      EXPECT_EQ(a.crc_ok(), parsed.value().crc_ok) << "trial " << trial;
    }
  }
  return !::testing::Test::HasFailure();
}

}  // namespace

class IcapDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned /*family*/, u64 /*seed*/>> {};

TEST_P(IcapDifferential, MutatedBodiesAgreeWithTheHostReaderOnBothClockPaths) {
  const auto [family, seed] = GetParam();
  bits::GeneratorConfig cfg;
  cfg.device = family == 5 ? bits::kVirtex5Sx50t : bits::kVirtex6Lx240t;
  cfg.target_body_bytes = 8_KiB;
  cfg.seed = seed;
  const Words body = bits::Generator(cfg).generate().body;

  Prng rng(seed * 13 + 1);
  constexpr int kBodies = 1250;  // per shard; 4 shards per family
  u64 tapped_bursts = 0;
  u64 tapped_fires = 0;
  for (int trial = 0; trial < kBodies; ++trial) {
    Words mutated = body;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<u32>(rng.next());
    }
    if (trial % 4 != 3) {
      if (!icap_agrees(cfg.device, mutated, trial)) return;
      continue;
    }
    // Four times the chaos soak's rates, so that taps fire in many bodies.
    Faulted faulted{txn::chaos_plan(seed * 10'000 + static_cast<u64>(trial), 4.0)};
    if (!icap_agrees(cfg.device, mutated, trial, &faulted)) return;
    tapped_bursts += faulted.bursts;
    tapped_fires += faulted.fires;
  }
  // The faulted bodies did burst through the taps, and the taps fired.
  EXPECT_GT(tapped_bursts, 0u);
  EXPECT_GT(tapped_fires, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, IcapDifferential,
                         ::testing::Combine(::testing::Values(5u, 6u),
                                            ::testing::Range<u64>(300, 304)));

TEST(IcapDifferentialCase, NopWithAPayloadIsRejectedLikeTheWalker) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  Words body = bits::Generator(cfg).generate().body;
  // The NOOP after CMD RCRC becomes a NOP that declares five payload words.
  const auto noop = std::find(body.begin(), body.end(), bits::kNoopWord);
  ASSERT_NE(noop, body.end());
  *noop = bits::type1(bits::Opcode::kNop, bits::ConfigReg::kCrc, 5);
  ASSERT_FALSE(walker_accepts(body));
  EXPECT_TRUE(lint_reports(bits::kVirtex5Sx50t, body, "bs.packet.nop-count"));
  const IcapRun run = stream_body(bits::kVirtex5Sx50t, body, true);
  EXPECT_TRUE(run.port().errored());
  EXPECT_EQ(run.port().error_message(), "NOP packet declares a payload");
  EXPECT_EQ(run.port().frames_committed(), 0u);
  EXPECT_FALSE(run.result.success);
  EXPECT_TRUE(icap_agrees(bits::kVirtex5Sx50t, body, 0));
}

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
