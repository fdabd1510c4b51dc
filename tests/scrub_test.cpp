// Unit tests for bitstream relocation and the scrubbing subsystem (SEU
// injector, readback, scrubber).
#include <gtest/gtest.h>

#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "scrub/scrubber.hpp"
#include "scrub/seu.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed = 1,
                               bits::FrameAddress start = {0, 0, 0, 10, 0}) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.start_address = start;
  return bits::Generator(cfg).generate();
}

std::vector<bits::FrameAddress> addresses_of(const bits::PartialBitstream& bs) {
  std::vector<bits::FrameAddress> out;
  for (const auto& f : bs.frames) out.push_back(f.address);
  return out;
}

// ------------------------------------------------------------- relocation

TEST(Relocate, MovesFramesToNewRegionWithValidCrc) {
  auto bs = make_bs(16_KiB, 5);
  const bits::FrameAddress target{0, 1, 3, 77, 0};
  auto moved = bits::relocate(bs, target);
  ASSERT_TRUE(moved.ok()) << moved.error().message;

  auto parsed = bits::parse_body(bits::kVirtex5Sx50t, moved.value().body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().crc_ok);
  EXPECT_EQ(parsed.value().start_address, target);
  ASSERT_EQ(parsed.value().frames.size(), bs.frames.size());
  // Same content, different addresses.
  for (std::size_t i = 0; i < bs.frames.size(); ++i) {
    EXPECT_EQ(parsed.value().frames[i].data, bs.frames[i].data);
  }
  EXPECT_NE(parsed.value().frames[0].address, bs.frames[0].address);
}

TEST(Relocate, RelocatedBitstreamLoadsThroughUparc) {
  core::System sys;
  auto bs = make_bs(32_KiB, 6);
  const bits::FrameAddress target{0, 0, 4, 50, 0};
  auto moved = bits::relocate(bs, target);
  ASSERT_TRUE(moved.ok());

  ASSERT_TRUE(sys.stage(moved.value()).ok());
  auto r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(moved.value().frames));
  EXPECT_FALSE(sys.plane().contains(bs.frames));  // not at the old address
}

TEST(Relocate, SameImageServesTwoRegions) {
  core::System sys;
  auto bs = make_bs(16_KiB, 7);
  auto copy_a = bits::relocate(bs, bits::FrameAddress{0, 0, 1, 30, 0});
  auto copy_b = bits::relocate(bs, bits::FrameAddress{0, 0, 2, 60, 0});
  ASSERT_TRUE(copy_a.ok() && copy_b.ok());

  for (const auto* m : {&copy_a.value(), &copy_b.value()}) {
    ASSERT_TRUE(sys.stage(*m).ok());
    ASSERT_TRUE(sys.reconfigure_blocking().success);
  }
  EXPECT_TRUE(sys.plane().contains(copy_a.value().frames));
  EXPECT_TRUE(sys.plane().contains(copy_b.value().frames));
}

TEST(Relocate, RejectsBodiesWithoutFarOrCrc) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.write_reg(bits::ConfigReg::kIdcode, bits::kVirtex5Sx50t.idcode);
  pw.command(bits::Command::kDesync);
  bits::PartialBitstream bs;
  bs.body = pw.words();
  auto r = bits::relocate(bs, bits::FrameAddress{});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("no FAR write"), std::string::npos) << r.error().message;
}

TEST(Relocate, RoundTripBackToOriginalAddress) {
  auto bs = make_bs(8_KiB, 9);
  auto there = bits::relocate(bs, bits::FrameAddress{0, 1, 0, 99, 0});
  ASSERT_TRUE(there.ok());
  auto back = bits::relocate(there.value(), bs.frames[0].address);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().body, bs.body);
}

// ------------------------------------------------------------ SEU injector

TEST(Seu, InjectNowCorruptsExactlyOneBit) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  auto bs = make_bs(8_KiB, 3);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);

  scrub::SeuInjector seu(sim, "seu", plane, addresses_of(bs), TimePs::from_ms(1), 42);
  auto ev = seu.inject_now();
  const Words* frame = plane.read_frame(ev.frame);
  ASSERT_NE(frame, nullptr);

  // Exactly the logged bit differs from golden.
  const bits::Frame* golden = nullptr;
  for (const auto& f : bs.frames) {
    if (f.address == ev.frame) golden = &f;
  }
  ASSERT_NE(golden, nullptr);
  for (u32 i = 0; i < frame->size(); ++i) {
    const u32 diff = (*frame)[i] ^ golden->data[i];
    if (i == ev.word_index) {
      EXPECT_EQ(diff, 1u << ev.bit_index);
    } else {
      EXPECT_EQ(diff, 0u);
    }
  }
}

TEST(Seu, PeriodicInjectionAtConfiguredRate) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  auto bs = make_bs(8_KiB, 3);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);

  scrub::SeuInjector seu(sim, "seu", plane, addresses_of(bs), TimePs::from_ms(1), 7);
  seu.start();
  sim.run_until(TimePs::from_ms(50));
  seu.stop();
  sim.run();
  // Mean interval 1 ms over 50 ms: ~50 events (jitter is [0.5, 1.5]x).
  EXPECT_GE(seu.injected(), 35u);
  EXPECT_LE(seu.injected(), 70u);
  EXPECT_THROW(scrub::SeuInjector(sim, "bad", plane, {}, TimePs::from_ms(1)),
               std::invalid_argument);
}

// --------------------------------------------------------------- readback

TEST(ReadbackTest, CleanRegionVerifiesThroughTheIcap) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);
  auto bs = make_bs(16_KiB, 3);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);

  scrub::Readback rb(sim, "rb", port);
  scrub::GoldenSignature golden(bs.frames);
  std::optional<scrub::ReadbackReport> report;
  rb.verify_region(golden, [&](const scrub::ReadbackReport& r) { report = r; });
  sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->words_read, bs.frames.size() * 41);
  EXPECT_EQ(port.words_read_back(), report->words_read);
  // One data word per cycle plus one command word per cycle (sync, FAR,
  // RCFG, FDRO read headers — one contiguous run => 7 command words).
  EXPECT_EQ(report->command_words, 7u);
  const u64 cycles = report->command_words + report->words_read;
  EXPECT_EQ(report->duration.ps(), cycles * 10'000);  // 100 MHz
}

TEST(ReadbackTest, DetectsCorruptAndMissingFrames) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);
  auto bs = make_bs(16_KiB, 3);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);

  // Corrupt one frame; also check a signature for a frame that was never
  // written (reads back as zeros => CRC mismatch).
  Words bad = bs.frames[2].data;
  bad[7] ^= 0x8;
  plane.write_frame(bs.frames[2].address, bad);

  auto frames_plus = bs.frames;
  bits::Frame ghost;
  ghost.address = bits::FrameAddress{0, 1, 7, 1, 1};
  ghost.data = Words(41, 0x123u);
  frames_plus.push_back(ghost);

  scrub::Readback rb(sim, "rb", port);
  scrub::GoldenSignature golden(frames_plus);
  std::optional<scrub::ReadbackReport> report;
  rb.verify_region(golden, [&](const scrub::ReadbackReport& r) { report = r; });
  sim.run();
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->mismatches.size(), 2u);
  // The ghost frame is a separate run: two runs => extra FAR/RCFG/read
  // commands for the second (6 more command words).
  EXPECT_EQ(report->command_words, 13u);
}

TEST(ReadbackTest, SwallowedReadCommandStallsOutInsteadOfHanging) {
  // A faulted port can corrupt the readback's own command words (here: the
  // sync word, so every subsequent write is silently ignored) without ever
  // raising an error. The readout phase then never produces a word; the
  // stall guard must terminate the pass conservatively instead of letting
  // the readback clock tick forever.
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);
  auto bs = make_bs(16_KiB, 3);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.arm(fault::FaultSite::kIcapCorrupt, {.rate = 1.0});
  fault::FaultInjector inj(sim, "inj", plan);
  inj.arm_icap(port);

  scrub::Readback rb(sim, "rb", port);
  scrub::GoldenSignature golden(bs.frames);
  std::optional<scrub::ReadbackReport> report;
  rb.verify_region(golden, [&](const scrub::ReadbackReport& r) { report = r; });
  sim.run();

  ASSERT_TRUE(report.has_value()) << "readback never terminated";
  EXPECT_TRUE(report->stalled);
  EXPECT_FALSE(report->clean());
  // Every frame of the (single) run is suspect.
  EXPECT_EQ(report->mismatches.size(), bs.frames.size());
  EXPECT_EQ(report->words_read, 0u);
  EXPECT_FALSE(rb.busy());
}

TEST(ReadbackTest, BusyGuardAndIdempotentReuse) {
  sim::Simulation sim;
  icap::ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  icap::Icap port(sim, "icap", plane);
  auto bs = make_bs(8_KiB, 4);
  for (const auto& f : bs.frames) plane.write_frame(f.address, f.data);
  scrub::GoldenSignature golden(bs.frames);

  scrub::Readback rb(sim, "rb", port);
  int completions = 0;
  rb.verify_region(golden, [&](const scrub::ReadbackReport&) { ++completions; });
  EXPECT_TRUE(rb.busy());
  EXPECT_THROW(rb.verify_region(golden, [](const scrub::ReadbackReport&) {}),
               std::logic_error);
  sim.run();
  // Reusable after completion.
  rb.verify_region(golden, [&](const scrub::ReadbackReport&) { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(rb.runs(), 2u);
}

TEST(ReadbackTest, GoldenSignatureLookup) {
  auto bs = make_bs(8_KiB, 4);
  scrub::GoldenSignature golden(bs.frames);
  EXPECT_EQ(golden.frame_count(), bs.frames.size());
  EXPECT_NE(golden.expected_crc(bs.frames[0].address), nullptr);
  EXPECT_EQ(*golden.expected_crc(bs.frames[0].address), crc32_words(bs.frames[0].data));
  EXPECT_EQ(golden.expected_crc(bits::FrameAddress{7, 0, 1, 2, 3}), nullptr);
}

// --------------------------------------------------------------- scrubber

class ScrubberFixture : public ::testing::Test {
 protected:
  void stage_golden() {
    golden = make_bs(32_KiB, 8);
    ASSERT_TRUE(sys.stage(golden).ok());
    auto r = sys.reconfigure_blocking();  // initial configuration
    ASSERT_TRUE(r.success);
  }

  core::System sys;
  bits::PartialBitstream golden;
};

TEST_F(ScrubberFixture, ReadbackDrivenRepairsOnlyWhenCorrupted) {
  stage_golden();
  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::ScrubberConfig cfg;
  cfg.mode = scrub::ScrubMode::kReadbackDriven;
  scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), rb, golden.frames, cfg);

  // Clean round: no repair.
  bool repaired = true;
  scrubber.scrub_once([&](bool did) { repaired = did; });
  sys.sim().run();
  EXPECT_FALSE(repaired);
  EXPECT_EQ(scrubber.scrub_stats().repairs, 0u);

  // Corrupt, then scrub: repair happens and the plane is golden again.
  scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), addresses_of(golden),
                         TimePs::from_ms(1), 3);
  (void)seu.inject_now();
  EXPECT_FALSE(sys.plane().contains(golden.frames));
  scrubber.scrub_once([&](bool did) { repaired = did; });
  sys.sim().run();
  EXPECT_TRUE(repaired);
  EXPECT_EQ(scrubber.scrub_stats().repairs, 1u);
  EXPECT_EQ(scrubber.scrub_stats().mismatched_frames, 1u);
  EXPECT_TRUE(sys.plane().contains(golden.frames));
}

TEST_F(ScrubberFixture, BlindModeAlwaysRepairs) {
  stage_golden();
  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::ScrubberConfig cfg;
  cfg.mode = scrub::ScrubMode::kBlind;
  scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), rb, golden.frames, cfg);

  for (int i = 0; i < 3; ++i) {
    bool repaired = false;
    scrubber.scrub_once([&](bool did) { repaired = did; });
    sys.sim().run();
    EXPECT_TRUE(repaired);
  }
  EXPECT_EQ(scrubber.scrub_stats().repairs, 3u);
  EXPECT_EQ(scrubber.scrub_stats().readback_time.ps(), 0u);
}

TEST_F(ScrubberFixture, FrameRepairFixesOnlyDamagedFrames) {
  stage_golden();
  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::ScrubberConfig cfg;
  cfg.mode = scrub::ScrubMode::kFrameRepair;
  scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), rb, golden.frames, cfg);

  // Corrupt three distinct frames.
  scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), addresses_of(golden),
                         TimePs::from_ms(1), 11);
  for (int i = 0; i < 3; ++i) (void)seu.inject_now();

  bool repaired = false;
  scrubber.scrub_once([&](bool did) { repaired = did; });
  sys.sim().run();
  EXPECT_TRUE(repaired);
  EXPECT_TRUE(sys.plane().contains(golden.frames));
  // Each damaged frame repaired individually (3 upsets may share a frame).
  EXPECT_GE(scrubber.scrub_stats().repairs, 1u);
  EXPECT_LE(scrubber.scrub_stats().repairs, 3u);
  EXPECT_EQ(scrubber.scrub_stats().mismatched_frames, scrubber.scrub_stats().repairs);
}

TEST_F(ScrubberFixture, FrameRepairIsMuchFasterThanFullRewrite) {
  stage_golden();
  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), addresses_of(golden),
                         TimePs::from_ms(1), 13);

  // Full-region rewrite cost.
  scrub::ScrubberConfig full_cfg;
  full_cfg.mode = scrub::ScrubMode::kReadbackDriven;
  scrub::Scrubber full(sys.sim(), "full", sys.uparc(), rb, golden.frames, full_cfg);
  (void)seu.inject_now();
  full.scrub_once([](bool) {});
  sys.sim().run();
  const TimePs full_repair = full.scrub_stats().repair_time;

  // Single-frame repair cost.
  scrub::ScrubberConfig frame_cfg;
  frame_cfg.mode = scrub::ScrubMode::kFrameRepair;
  scrub::Scrubber frame(sys.sim(), "frame", sys.uparc(), rb, golden.frames, frame_cfg);
  (void)seu.inject_now();
  frame.scrub_once([](bool) {});
  sys.sim().run();
  const TimePs frame_repair = frame.scrub_stats().repair_time;

  EXPECT_LT(frame_repair.ps() * 5, full_repair.ps());
  EXPECT_TRUE(sys.plane().contains(golden.frames));
}

TEST(FrameRepairBitstream, IsSelfContainedAndValid) {
  auto bs = [] {
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = 8_KiB;
    return bits::Generator(cfg).generate();
  }();
  auto mini = scrub::Scrubber::make_frame_repair_bitstream(bits::kVirtex5Sx50t, bs.frames[3]);
  EXPECT_LT(mini.body_bytes(), 300u);  // prologue + headers + 41 words
  auto parsed = bits::parse_body(bits::kVirtex5Sx50t, mini.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().crc_ok);
  ASSERT_EQ(parsed.value().frames.size(), 1u);
  EXPECT_EQ(parsed.value().frames[0].address, bs.frames[3].address);
  EXPECT_EQ(parsed.value().frames[0].data, bs.frames[3].data);
}

TEST_F(ScrubberFixture, PeriodicScrubbingKeepsRegionGoldenUnderUpsets) {
  stage_golden();
  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::ScrubberConfig cfg;
  cfg.period = TimePs::from_ms(2);
  scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), rb, golden.frames, cfg);
  scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), addresses_of(golden),
                         TimePs::from_ms(5), 17);

  scrubber.start();
  seu.start();
  sys.sim().run_until(TimePs::from_ms(100));
  seu.stop();
  sys.sim().run_until(TimePs::from_ms(110));  // final scrub rounds
  scrubber.stop();
  sys.sim().run();

  EXPECT_GT(seu.injected(), 10u);
  EXPECT_GT(scrubber.scrub_stats().rounds, 40u);
  EXPECT_GE(scrubber.scrub_stats().repairs, seu.injected() / 2);  // bursts coalesce
  EXPECT_TRUE(sys.plane().contains(golden.frames));
}

}  // namespace
}  // namespace uparc
