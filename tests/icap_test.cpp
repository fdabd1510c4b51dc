// Unit tests for the ICAP primitive model, config plane, DRP bus and DCM.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "bitstream/generator.hpp"
#include "common/prng.hpp"
#include "fault/injector.hpp"
#include "icap/dcm.hpp"
#include "icap/icap.hpp"

namespace uparc::icap {
namespace {

using namespace uparc::literals;

class IcapFixture : public ::testing::Test {
 protected:
  sim::Simulation sim;
  ConfigPlane plane{sim, "plane", bits::kVirtex5Sx50t};
  Icap port{sim, "icap", plane};
};

TEST_F(IcapFixture, ConsumesGeneratedBitstream) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 16_KiB;
  auto bs = bits::Generator(cfg).generate();

  bool done = false;
  port.on_done([&] { done = true; });
  for (u32 w : bs.body) port.write_word(w);

  EXPECT_TRUE(done);
  EXPECT_TRUE(port.done());
  EXPECT_FALSE(port.errored());
  EXPECT_TRUE(port.crc_checked());
  EXPECT_TRUE(port.crc_ok());
  EXPECT_EQ(port.frames_committed(), bs.frames.size());
  EXPECT_EQ(port.idcode_seen(), bits::kVirtex5Sx50t.idcode);
  EXPECT_TRUE(plane.contains(bs.frames));
}

TEST_F(IcapFixture, DetectsCorruptFrameViaCrc) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();
  bs.body[bs.fdri_offset + 7] ^= 0x10;

  for (u32 w : bs.body) port.write_word(w);
  EXPECT_TRUE(port.done());  // stream is structurally intact
  EXPECT_TRUE(port.crc_checked());
  EXPECT_FALSE(port.crc_ok());
}

TEST_F(IcapFixture, RejectsWrongDeviceIdcode) {
  bits::GeneratorConfig cfg;
  cfg.device = bits::kVirtex6Lx240t;  // wrong device for this plane
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();

  for (u32 w : bs.body) {
    port.write_word(w);
    if (port.errored()) break;
  }
  EXPECT_TRUE(port.errored());
  EXPECT_NE(port.error_message().find("IDCODE"), std::string::npos);
}

TEST_F(IcapFixture, IgnoresEverythingBeforeSync) {
  port.write_word(0xDEADBEEF);
  port.write_word(bits::kDummyWord);
  EXPECT_EQ(port.state(), IcapState::kPreSync);
  port.write_word(bits::kSyncWord);
  EXPECT_EQ(port.state(), IcapState::kIdle);
}

TEST_F(IcapFixture, ErrorsOnBareType2) {
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type2(bits::Opcode::kWrite, 10));
  EXPECT_TRUE(port.errored());
}

TEST_F(IcapFixture, ErrorsOnFdriWithoutWcfg) {
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFdri, 1));
  port.write_word(0x12345678);
  EXPECT_TRUE(port.errored());
  EXPECT_NE(port.error_message().find("WCFG"), std::string::npos);
}

TEST_F(IcapFixture, ResetAllowsSecondBitstream) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs1 = bits::Generator(cfg).generate();
  cfg.seed = 77;
  cfg.start_address = bits::FrameAddress{0, 0, 1, 40, 0};
  auto bs2 = bits::Generator(cfg).generate();

  for (u32 w : bs1.body) port.write_word(w);
  ASSERT_TRUE(port.done());
  port.reset();
  EXPECT_EQ(port.state(), IcapState::kPreSync);
  for (u32 w : bs2.body) port.write_word(w);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(plane.contains(bs1.frames));
  EXPECT_TRUE(plane.contains(bs2.frames));
}

TEST_F(IcapFixture, ResetDropsAnArmedReadbackSelect) {
  // A stream that ends right after a zero-count FDRO read select leaves the
  // port waiting for the read's type-2 header.
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  port.write_word(static_cast<u32>(bits::Command::kRcfg));
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 0));
  ASSERT_EQ(port.state(), IcapState::kAwaitType2);

  // After a reset, the next bitstream's FDRI type-2 header is a write.
  port.reset();
  EXPECT_EQ(port.idcode_seen(), 0u);
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  const auto bs = bits::Generator(cfg).generate();
  for (u32 w : bs.body) port.write_word(w);
  EXPECT_FALSE(port.errored()) << port.error_message();
  EXPECT_TRUE(port.done());
  EXPECT_EQ(port.frames_committed(), bs.frames.size());
  EXPECT_TRUE(plane.contains(bs.frames));
}

TEST_F(IcapFixture, AbortMidBurstClearsInFlightFrameState) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();

  // Abort via the injector fault path, mid-FDRI so a frame is half-buffered.
  const u64 abort_at = static_cast<u64>(bs.fdri_offset) + 20;  // < one frame
  fault::FaultPlan plan;
  plan.seed = 2;
  plan.arm(fault::FaultSite::kIcapAbort, {.rate = 1.0, .after = abort_at, .max_fires = 1});
  fault::FaultInjector inj(sim, "inj", plan);
  inj.arm_icap(port);

  std::size_t streamed = 0;
  for (u32 w : bs.body) {
    port.write_word(w);
    ++streamed;
    if (port.errored()) break;
  }
  ASSERT_TRUE(port.errored());
  EXPECT_EQ(port.error_cause(), ErrorCause::kIcapAbort);
  EXPECT_LT(streamed, bs.body.size());

  // Regression: the abort must drop the torn frame and the packet's word
  // budget, or they would bleed into the next burst's accounting.
  EXPECT_EQ(port.in_flight_frame_words(), 0u);
  EXPECT_EQ(port.payload_words_left(), 0u);

  // A reset-and-restream (the recovery path) completes cleanly.
  port.reset();
  for (u32 w : bs.body) port.write_word(w);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(port.crc_ok());
  EXPECT_EQ(port.frames_committed(), bs.frames.size());
  EXPECT_TRUE(plane.contains(bs.frames));
}

TEST_F(IcapFixture, TrailingWordsAfterDesyncIgnored) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();
  for (u32 w : bs.body) port.write_word(w);
  const u64 frames = port.frames_committed();
  port.write_word(0xFFFFFFFF);
  port.write_word(bits::kSyncWord);
  EXPECT_TRUE(port.done());
  EXPECT_EQ(port.frames_committed(), frames);
}

TEST_F(IcapFixture, ReadbackStreamsFramesViaFdro) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  auto bs = bits::Generator(cfg).generate();
  for (u32 w : bs.body) port.write_word(w);
  ASSERT_TRUE(port.done());

  // Readback command sequence: sync, FAR, CMD RCFG, FDRO read.
  port.reset();
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFar, 1));
  port.write_word(bs.frames[0].address.pack());
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  port.write_word(static_cast<u32>(bits::Command::kRcfg));
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 0));
  port.write_word(bits::type2(bits::Opcode::kRead, 2 * 41));
  ASSERT_TRUE(port.readout_active());

  Words readback;
  u32 w = 0;
  while (port.read_word(w)) readback.push_back(w);
  ASSERT_EQ(readback.size(), 2u * 41);
  EXPECT_TRUE(std::equal(readback.begin(), readback.begin() + 41, bs.frames[0].data.begin()));
  EXPECT_TRUE(std::equal(readback.begin() + 41, readback.end(), bs.frames[1].data.begin()));
  EXPECT_FALSE(port.readout_active());
  EXPECT_EQ(port.state(), IcapState::kIdle);
  EXPECT_EQ(port.words_read_back(), 2u * 41);
}

TEST_F(IcapFixture, ReadbackOfUnwrittenFramesIsZero) {
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFar, 1));
  port.write_word(bits::FrameAddress{0, 1, 9, 9, 9}.pack());
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  port.write_word(static_cast<u32>(bits::Command::kRcfg));
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 41));
  u32 w = 0xFFFFFFFFu;
  for (int i = 0; i < 41; ++i) {
    ASSERT_TRUE(port.read_word(w));
    EXPECT_EQ(w, 0u);
  }
  EXPECT_FALSE(port.read_word(w));
}

// read_words against read_word: a readout of written and unwritten frames
// taken in random chunks, one word or a span at a time, with a frame
// rewritten after read_word() has started it (the rest comes from its copy).
TEST_F(IcapFixture, ReadWordsReturnsWhatReadWordWould) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  const auto bs = bits::Generator(cfg).generate();
  const u32 frames = static_cast<u32>(bs.frames.size()) + 3;  // 3 past the image
  constexpr std::size_t kRewriteAt = 5 * 41 + 7;              // frame 5, seven words in
  const auto readout = [&](ConfigPlane& pl, Icap& ic, Prng* rng) {
    for (const auto& f : bs.frames) pl.write_frame(f.address, f.data);
    ic.write_word(bits::kSyncWord);
    ic.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFar, 1));
    ic.write_word(bs.frames[0].address.pack());
    ic.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
    ic.write_word(static_cast<u32>(bits::Command::kRcfg));
    ic.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 0));
    ic.write_word(bits::type2(bits::Opcode::kRead, frames * 41));
    Words out;
    u32 w = 0;
    while (ic.readout_active()) {
      if (out.size() == kRewriteAt) {
        // Rewriting frame 5 now changes only later frames' readout, never
        // the started one's.
        pl.write_frame(bs.frames[5].address, Words(41, 0x5A5A5A5Au));
        pl.write_frame(bs.frames[9].address, Words(41, 0x0F0F0F0Fu));
      }
      if (rng == nullptr || rng->below(3) == 0) {
        EXPECT_TRUE(ic.read_word(w));
        out.push_back(w);
        continue;
      }
      u32 n = std::min<u32>(ic.readout_words_left(), 1 + static_cast<u32>(rng->below(100)));
      if (out.size() < kRewriteAt) n = std::min(n, static_cast<u32>(kRewriteAt - out.size()));
      ic.read_words(n, [&](WordsView words) {
        EXPECT_LE(words.size(), 41u);
        out.insert(out.end(), words.begin(), words.end());
      });
    }
    EXPECT_EQ(ic.state(), IcapState::kIdle);
    EXPECT_EQ(ic.words_read_back(), frames * 41);
    return out;
  };
  const Words ref = readout(plane, port, nullptr);
  ASSERT_EQ(ref.size(), frames * 41);
  EXPECT_TRUE(std::equal(ref.begin() + 5 * 41, ref.begin() + 6 * 41, bs.frames[5].data.begin()));
  EXPECT_EQ(ref[9 * 41], 0x0F0F0F0Fu);
  EXPECT_EQ(ref.back(), 0u);  // an unwritten frame reads as zeros
  for (u64 seed = 1; seed <= 20; ++seed) {
    sim::Simulation s2;
    ConfigPlane p2(s2, "plane", bits::kVirtex5Sx50t);
    Icap i2(s2, "icap", p2);
    Prng rng(seed);
    EXPECT_EQ(readout(p2, i2, &rng), ref) << "seed " << seed;
  }
  EXPECT_THROW(port.read_words(1, [](WordsView) {}), std::logic_error);  // no readout
}

TEST_F(IcapFixture, AWriteTapWithAQuietAnswerBurstsWithinIt) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  const auto bs = bits::Generator(cfg).generate();
  u64 tapped = 0;
  u64 passed = 0;
  port.set_write_tap(
      [&](u32&) {
        ++tapped;
        return false;
      },
      {[](u64 n) { return std::min<u64>(n, 100); }, [&](u64 k) { passed += k; }});
  for (std::size_t i = 0; i < bs.fdri_offset; ++i) {
    EXPECT_EQ(port.burst_capacity(), 0u) << "word " << i;
    port.write_word(bs.body[i]);
  }
  ASSERT_EQ(port.burst_capacity(), 100u);
  port.write_words(WordsView(bs.body).subspan(bs.fdri_offset, 100));
  EXPECT_EQ(passed, 100u);
  EXPECT_EQ(tapped, bs.fdri_offset);
  for (std::size_t i = bs.fdri_offset + 100; i < bs.body.size(); ++i) port.write_word(bs.body[i]);
  EXPECT_TRUE(port.done());
  EXPECT_TRUE(port.crc_ok());
  EXPECT_TRUE(plane.contains(bs.frames));
}

TEST_F(IcapFixture, ReadRequiresRcfgAndFdro) {
  port.write_word(bits::kSyncWord);
  // Read without RCFG: error.
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 41));
  EXPECT_TRUE(port.errored());

  port.reset();
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  port.write_word(static_cast<u32>(bits::Command::kRcfg));
  // Read of a non-FDRO register: error.
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdri, 41));
  EXPECT_TRUE(port.errored());
}

TEST_F(IcapFixture, WriteDuringReadoutErrors) {
  port.write_word(bits::kSyncWord);
  port.write_word(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  port.write_word(static_cast<u32>(bits::Command::kRcfg));
  port.write_word(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 41));
  ASSERT_TRUE(port.readout_active());
  port.write_word(bits::kNoopWord);
  EXPECT_TRUE(port.errored());
}

// write_words against write_word on a hand-built body: FDRI data in two
// type-2 packets with a frame straddling the boundary, then a type-1 FDRI
// packet with no FAR write in between, so its frame lands where the FAR
// auto-incremented to.
class IcapBurst : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(IcapBurst, SpanWritesMatchTheWordPath) {
  const auto [family, chunk] = GetParam();
  const bits::Device device = family == 5 ? bits::kVirtex5Sx50t : bits::kVirtex6Lx240t;
  const std::size_t fw = device.frame_words;
  const bits::FrameAddress origin{0, 0, 1, 20, 126};  // crosses a column
  Words payload(4 * fw + fw);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<u32>(i * 2654435761u);
  const WordsView data(payload);

  bits::PacketWriter pw;
  pw.prologue();
  bits::ConfigCrc crc;
  auto tracked = [&](bits::ConfigReg reg, u32 value) {
    pw.write_reg(reg, value);
    crc.write(reg, value);
  };
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kRcrc));
  crc.reset();
  tracked(bits::ConfigReg::kIdcode, device.idcode);
  tracked(bits::ConfigReg::kFar, origin.pack());
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kWcfg));
  const std::size_t first = fw + fw / 2;  // 1.5 frames, then 2.5
  pw.write_fdri(data.subspan(0, first));
  pw.write_fdri(data.subspan(first, 4 * fw - first));
  Words body = pw.take();
  body.push_back(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFdri, static_cast<u32>(fw)));
  body.insert(body.end(), data.begin() + static_cast<std::ptrdiff_t>(4 * fw), data.end());
  crc.write(bits::ConfigReg::kFdri, data);
  bits::PacketWriter tail;
  tail.write_crc(crc.value());
  tail.command(bits::Command::kDesync);
  body.insert(body.end(), tail.words().begin(), tail.words().end());

  sim::Simulation sim;
  ConfigPlane word_plane(sim, "word_plane", device);
  Icap word_port(sim, "word", word_plane);
  ConfigPlane span_plane(sim, "span_plane", device);
  Icap span_port(sim, "span", span_plane);
  for (u32 w : body) word_port.write_word(w);
  std::size_t spans = 0;
  for (std::size_t i = 0; i < body.size();) {
    const std::size_t n = std::min<std::size_t>({span_port.burst_capacity(), chunk,
                                                 body.size() - i});
    if (n == 0) {
      span_port.write_word(body[i++]);
      continue;
    }
    span_port.write_words(WordsView(body).subspan(i, n));
    i += n;
    ++spans;
  }

  EXPECT_GT(spans, 2u);
  ASSERT_TRUE(word_port.done());
  EXPECT_TRUE(word_port.crc_ok());
  EXPECT_TRUE(word_plane.contains(bits::split_frames(device, origin, data)));
  EXPECT_TRUE(span_port.done()) << span_port.error_message();
  EXPECT_TRUE(span_port.crc_checked());
  EXPECT_TRUE(span_port.crc_ok());
  EXPECT_TRUE(span_plane.same_frames(word_plane));
  EXPECT_EQ(span_plane.total_frame_writes(), word_plane.total_frame_writes());
  EXPECT_EQ(span_port.words_consumed(), word_port.words_consumed());
  EXPECT_EQ(span_port.frames_committed(), word_port.frames_committed());
  EXPECT_EQ(span_port.frames_committed(), 5u);
  EXPECT_EQ(span_port.in_flight_frame_words(), 0u);
  EXPECT_EQ(sim.metrics().counter("span.words").value(),
            sim.metrics().counter("word.words").value());
  EXPECT_EQ(sim.metrics().counter("span.frames").value(),
            sim.metrics().counter("word.frames").value());
}

INSTANTIATE_TEST_SUITE_P(Families, IcapBurst,
                         ::testing::Combine(::testing::Values(5u, 6u),
                                            ::testing::Values(std::size_t{7}, std::size_t{40},
                                                              std::size_t{1000})));

TEST_F(IcapFixture, NoBurstOutsideFdriOrWithAWriteTap) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  const auto bs = bits::Generator(cfg).generate();
  // Up to the FDRI type-2 header: no burst yet; then all but the last word.
  for (std::size_t i = 0; i < bs.fdri_offset; ++i) {
    EXPECT_EQ(port.burst_capacity(), 0u) << "word " << i;
    port.write_word(bs.body[i]);
  }
  EXPECT_EQ(port.burst_capacity(), bs.fdri_words - 1);
  EXPECT_THROW(port.write_words(WordsView(bs.body).subspan(bs.fdri_offset, bs.fdri_words)),
               std::logic_error);
  port.set_write_tap([](u32&) { return false; });
  EXPECT_EQ(port.burst_capacity(), 0u);
}

TEST(ConfigPlaneTest, FrameStorageAndMismatch) {
  sim::Simulation sim;
  ConfigPlane plane(sim, "plane", bits::kVirtex5Sx50t);
  bits::FrameAddress a{0, 0, 0, 5, 0};
  Words frame(41, 0xAAAA5555u);
  plane.write_frame(a, frame);
  ASSERT_NE(plane.read_frame(a), nullptr);
  EXPECT_EQ(*plane.read_frame(a), frame);
  EXPECT_EQ(plane.read_frame(bits::FrameAddress{0, 0, 0, 5, 1}), nullptr);

  Words wrong(40, 0);
  EXPECT_THROW(plane.write_frame(a, wrong), std::invalid_argument);

  std::vector<bits::Frame> expect{{a, Words(41, 0x1)}};
  EXPECT_FALSE(plane.contains(expect));
  plane.clear();
  EXPECT_EQ(plane.frames_written(), 0u);
}

TEST(DcmTest, ProgramRetunesAfterLock) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  Dcm dcm(sim, "dcm", Frequency::mhz(100), clk, TimePs::from_us(10));

  EXPECT_TRUE(dcm.locked());
  EXPECT_EQ(dcm.f_out(), Frequency::mhz(100));  // power-on M/D = 2/2

  bool relocked = false;
  dcm.on_locked([&] { relocked = true; });
  dcm.program(29, 8);  // the paper's 362.5 MHz setting
  EXPECT_FALSE(dcm.locked());
  sim.run();
  EXPECT_TRUE(relocked);
  EXPECT_TRUE(dcm.locked());
  EXPECT_NEAR(dcm.f_out().in_mhz(), 362.5, 1e-9);
  EXPECT_NEAR(clk.frequency().in_mhz(), 362.5, 1e-9);
}

TEST(DcmTest, RangeChecks) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  Dcm dcm(sim, "dcm", Frequency::mhz(100), clk);
  EXPECT_THROW(dcm.program(1, 8), std::invalid_argument);
  EXPECT_THROW(dcm.program(34, 8), std::invalid_argument);
  EXPECT_THROW(dcm.program(29, 0), std::invalid_argument);
  EXPECT_THROW(dcm.program(29, 33), std::invalid_argument);
}

TEST(DcmTest, NewProgramSupersedesPendingRelock) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  Dcm dcm(sim, "dcm", Frequency::mhz(100), clk, TimePs::from_us(10));
  dcm.program(4, 2);   // 200 MHz, relock pending
  dcm.program(29, 8);  // supersede before lock
  sim.run();
  EXPECT_NEAR(dcm.f_out().in_mhz(), 362.5, 1e-9);
  EXPECT_EQ(dcm.relocks(), 1u);  // only the surviving relock fired
}

TEST(DcmTest, GatesRunningClockDuringRelock) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  Dcm dcm(sim, "dcm", Frequency::mhz(100), clk, TimePs::from_us(1));
  int edges = 0;
  clk.on_rising([&] {
    if (++edges == 5) clk.disable();
  });
  clk.enable();
  dcm.program(4, 2);
  // Supply-gated during relock: the consumer's EN survives, but no edges
  // are delivered until LOCKED returns.
  EXPECT_TRUE(clk.enabled());
  EXPECT_FALSE(clk.supplied());
  EXPECT_FALSE(clk.running());
  sim.run();
  // Relocked: the supply returned and the clock ticked to its 5-edge stop.
  EXPECT_TRUE(clk.supplied());
  EXPECT_EQ(edges, 5);
  EXPECT_NEAR(clk.frequency().in_mhz(), 200.0, 1e-9);
}

TEST(DcmTest, DrpInterface) {
  sim::Simulation sim;
  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  Dcm dcm(sim, "dcm", Frequency::mhz(100), clk, TimePs::from_us(1));
  DrpBus bus(sim, "drp");
  bus.attach(dcm);

  EXPECT_EQ(bus.write(Dcm::kRegM, 29 - 1), 3u);
  EXPECT_EQ(bus.write(Dcm::kRegD, 8 - 1), 3u);
  u16 status = 0xFFFF;
  (void)bus.read(Dcm::kRegStatus, status);
  EXPECT_EQ(status, 0x1);  // still locked: staged values not applied yet
  (void)bus.write(Dcm::kRegStatus, 0x2);
  (void)bus.read(Dcm::kRegStatus, status);
  EXPECT_EQ(status, 0x0);  // relocking
  sim.run();
  EXPECT_NEAR(dcm.f_out().in_mhz(), 362.5, 1e-9);
  EXPECT_EQ(bus.accesses(), 5u);
}

TEST(DrpBusTest, RequiresPeripheral) {
  sim::Simulation sim;
  DrpBus bus(sim, "drp");
  u16 v;
  EXPECT_THROW((void)bus.read(0, v), std::logic_error);
  EXPECT_THROW(DrpBus(sim, "bad", 0), std::invalid_argument);
}

}  // namespace
}  // namespace uparc::icap
