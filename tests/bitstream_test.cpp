// Unit tests for the bitstream substrate: format, header, frames, generator,
// parser, writer, and the packet reader's visitors agreeing on one image.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "bitstream/writer.hpp"
#include "common/units.hpp"
#include "core/system.hpp"

namespace uparc::bits {
namespace {

using namespace uparc::literals;

TEST(Format, PacketHeaderFieldsRoundTrip) {
  u32 h = type1(Opcode::kWrite, ConfigReg::kFdri, 41);
  EXPECT_EQ(packet_type(h), 1u);
  EXPECT_EQ(packet_opcode(h), Opcode::kWrite);
  EXPECT_EQ(packet_reg(h), ConfigReg::kFdri);
  EXPECT_EQ(type1_count(h), 41u);

  u32 h2 = type2(Opcode::kWrite, 123456);
  EXPECT_EQ(packet_type(h2), 2u);
  EXPECT_EQ(type2_count(h2), 123456u);
}

TEST(Format, DeviceLookup) {
  auto v5 = device_by_idcode(kVirtex5Sx50t.idcode);
  ASSERT_TRUE(v5.has_value());
  EXPECT_EQ(v5->name, "XC5VSX50T");
  EXPECT_EQ(v5->frame_words, 41u);
  EXPECT_FALSE(device_by_idcode(0x12345678).has_value());
}

TEST(Format, PaperQuotedSizes) {
  // Paper: full Virtex-5 bitstream 2444 KB; frame = 41 words = 164 B.
  EXPECT_EQ(kVirtex5Sx50t.full_bitstream_kb, 2444u);
  EXPECT_EQ(frame_bytes(kVirtex5Sx50t), 164u);
}

TEST(FrameAddress, PackUnpackRoundTrip) {
  FrameAddress a{2, 1, 17, 200, 99};
  FrameAddress b = FrameAddress::unpack(a.pack());
  EXPECT_EQ(a, b);
}

TEST(FrameAddress, AutoIncrementOrder) {
  FrameAddress a{0, 0, 0, 0, 126};
  a = next_frame_address(a);
  EXPECT_EQ(a.minor, 127u);
  a = next_frame_address(a);
  EXPECT_EQ(a.minor, 0u);
  EXPECT_EQ(a.column, 1u);
}

TEST(FrameAddress, LinearIndexIsInjective) {
  FrameAddress a{0, 0, 0, 5, 10};
  FrameAddress b{0, 0, 0, 5, 11};
  FrameAddress c{0, 0, 0, 6, 10};
  EXPECT_NE(a.linear_index(), b.linear_index());
  EXPECT_NE(a.linear_index(), c.linear_index());
  EXPECT_EQ(b.linear_index(), a.linear_index() + 1);
}

TEST(Frames, SplitRejectsPartialFrames) {
  Words payload(40);  // not a multiple of 41
  EXPECT_THROW((void)split_frames(kVirtex5Sx50t, FrameAddress{}, payload),
               std::invalid_argument);
}

TEST(Header, SerializeParseRoundTrip) {
  BitstreamHeader h;
  h.design_name = "module_fft";
  h.part_name = "XC5VSX50T";
  h.body_bytes = 1234 * 4;
  Bytes file = serialize_header(h);
  file.resize(file.size() + h.body_bytes);  // fake body

  auto parsed = parse_header(file);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header, h);
  EXPECT_EQ(parsed.value().body_offset, serialize_header(h).size());
}

TEST(Header, RejectsCorruptMagic) {
  BitstreamHeader h;
  h.design_name = "x";
  Bytes file = serialize_header(h);
  file[3] ^= 0xFF;
  EXPECT_FALSE(parse_header(file).ok());
}

TEST(Header, RejectsTruncation) {
  BitstreamHeader h;
  h.design_name = "design";
  h.body_bytes = 100;
  Bytes file = serialize_header(h);  // no body appended
  auto r = parse_header(file);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("exceeds file size"), std::string::npos);
}

TEST(Generator, ProducesRequestedSizeInWholeFrames) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 32_KiB;
  Generator gen(cfg);
  PartialBitstream bs = gen.generate();
  // Payload rounds down to whole frames.
  EXPECT_EQ(bs.fdri_words % kVirtex5Sx50t.frame_words, 0u);
  EXPECT_EQ(bs.frames.size(), bs.fdri_words / kVirtex5Sx50t.frame_words);
  EXPECT_NEAR(static_cast<double>(bs.body_bytes()), 32.0 * 1024, 2048);
}

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig cfg;
  cfg.seed = 42;
  PartialBitstream a = Generator(cfg).generate();
  PartialBitstream b = Generator(cfg).generate();
  EXPECT_EQ(a.body, b.body);
  cfg.seed = 43;
  PartialBitstream c = Generator(cfg).generate();
  EXPECT_NE(a.body, c.body);
}

TEST(Generator, UtilizationControlsBlankFrames) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 64_KiB;
  cfg.utilization = 0.3;
  PartialBitstream low = Generator(cfg).generate();
  cfg.utilization = 1.0;
  PartialBitstream high = Generator(cfg).generate();

  auto blank_frames = [](const PartialBitstream& bs) {
    std::size_t blanks = 0;
    for (const auto& f : bs.frames) {
      bool all_zero = true;
      for (u32 w : f.data) {
        if (w != 0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) ++blanks;
    }
    return blanks;
  };
  // Fully-utilized designs may still produce the odd all-zero frame (a
  // template can be all blank stretches), but far fewer than at 30%.
  EXPECT_GT(blank_frames(low), 2 * blank_frames(high) + 20);
  EXPECT_LT(blank_frames(high), high.frames.size() / 10);
}

TEST(Generator, RejectsBadKnobs) {
  GeneratorConfig cfg;
  cfg.utilization = 1.5;
  EXPECT_THROW(Generator{cfg}, std::invalid_argument);
  cfg.utilization = 0.5;
  cfg.complexity = -0.1;
  EXPECT_THROW(Generator{cfg}, std::invalid_argument);
}

TEST(Parser, DecodesGeneratedBitstream) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 16_KiB;
  cfg.design_name = "pr_test";
  PartialBitstream bs = Generator(cfg).generate();

  auto parsed = parse_body(kVirtex5Sx50t, bs.body);
  ASSERT_TRUE(parsed.ok());
  const ParsedBody& body = parsed.value();
  EXPECT_TRUE(body.saw_sync);
  EXPECT_TRUE(body.desynced);
  EXPECT_EQ(body.idcode, kVirtex5Sx50t.idcode);
  EXPECT_TRUE(body.crc_checked);
  EXPECT_TRUE(body.crc_ok);
  ASSERT_EQ(body.frames.size(), bs.frames.size());
  for (std::size_t i = 0; i < body.frames.size(); ++i) {
    EXPECT_EQ(body.frames[i].address, bs.frames[i].address);
    EXPECT_EQ(body.frames[i].data, bs.frames[i].data);
  }
}

TEST(Parser, DetectsCorruptedPayloadViaCrc) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  PartialBitstream bs = Generator(cfg).generate();
  bs.body[bs.fdri_offset + 10] ^= 0x1;  // flip a config bit

  auto parsed = parse_body(kVirtex5Sx50t, bs.body);
  ASSERT_TRUE(parsed.ok());  // structurally fine
  EXPECT_TRUE(parsed.value().crc_checked);
  EXPECT_FALSE(parsed.value().crc_ok);
}

TEST(Parser, Type2FramedCrcChecksRelocatesLintsAndLoads) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 16_KiB;
  PartialBitstream bs = Generator(cfg).generate();
  // Re-frame the CRC write as a zero-count select plus a one-word type-2
  // packet, the other legal framing of the same register write.
  const std::size_t epilogue = bs.fdri_offset + bs.fdri_words;
  const auto crc = std::find(bs.body.begin() + static_cast<std::ptrdiff_t>(epilogue),
                             bs.body.end(), type1(Opcode::kWrite, ConfigReg::kCrc, 1));
  ASSERT_NE(crc, bs.body.end());
  *crc = type1(Opcode::kWrite, ConfigReg::kCrc, 0);
  bs.body.insert(crc + 1, type2(Opcode::kWrite, 1));
  bs.header.body_bytes += 4;

  auto parsed = parse_body(kVirtex5Sx50t, bs.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().crc_checked);
  EXPECT_TRUE(parsed.value().crc_ok);

  auto there = relocate(bs, FrameAddress{0, 1, 0, 99, 0});
  ASSERT_TRUE(there.ok()) << there.error().message;
  auto back = relocate(there.value(), bs.frames.front().address);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().body, bs.body);

  const analysis::Report lint = analysis::lint_body(kVirtex5Sx50t, bs.body);
  EXPECT_TRUE(lint.empty()) << lint.render_text();

  core::System sys;
  ASSERT_TRUE(sys.stage(bs).ok());
  const ctrl::ReconfigResult r = sys.reconfigure_blocking();
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_TRUE(sys.plane().contains(bs.frames));
}

TEST(Parser, IdentifyDeviceStopsAtTheFirstIdcode) {
  PacketWriter pw;
  pw.prologue();
  pw.write_reg(ConfigReg::kIdcode, kVirtex6Lx240t.idcode);
  pw.write_reg(ConfigReg::kIdcode, kVirtex5Sx50t.idcode);
  Words body = pw.take();
  body.push_back(type2(Opcode::kWrite, 4));  // an orphan type-2 the walk never reaches
  const std::optional<Device> device = identify_device(body);
  ASSERT_TRUE(device.has_value());
  EXPECT_EQ(device->idcode, kVirtex6Lx240t.idcode);
  EXPECT_FALSE(identify_device(Words(8, kDummyWord)).has_value());
}

TEST(Parser, RejectsMissingSync) {
  Words junk(100, kDummyWord);
  EXPECT_FALSE(parse_body(kVirtex5Sx50t, junk).ok());
}

TEST(Parser, RejectsOverrunningPacket) {
  PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(type1(Opcode::kWrite, ConfigReg::kCmd, 5));  // payload missing
  EXPECT_FALSE(parse_body(kVirtex5Sx50t, body).ok());
}

TEST(Parser, RejectsOrphanType2AsBadInput) {
  // A type-2 packet is only legal directly after a zero-count type-1 select;
  // with no register selected its payload cannot be attributed.
  PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(type2(Opcode::kWrite, 4));
  body.insert(body.end(), 4, 0u);
  auto r = parse_body(kVirtex5Sx50t, body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause, ErrorCause::kBadInput);
}

TEST(Parser, ClassifiesWordCountOverrunAsBadInput) {
  // Declared payload longer than the remaining file: the count field is
  // corrupt or the image is truncated.
  PacketWriter pw;
  pw.prologue();
  pw.write_reg(ConfigReg::kIdcode, kVirtex5Sx50t.idcode);
  Words body = pw.take();
  body.push_back(type1(Opcode::kWrite, ConfigReg::kFdri, 0));
  body.push_back(type2(Opcode::kWrite, 1u << 20));  // far beyond the body
  body.push_back(0u);
  auto r = parse_body(kVirtex5Sx50t, body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause, ErrorCause::kBadInput);
}

TEST(Parser, RejectsNopWithDeclaredPayload) {
  // A NOP carrying a count would make the parser misread its "payload" as
  // packet headers; the hardened parser rejects instead of desyncing.
  PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(type1(Opcode::kNop, ConfigReg::kCmd, 2));
  body.push_back(0u);
  body.push_back(0u);
  auto r = parse_body(kVirtex5Sx50t, body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause, ErrorCause::kBadInput);
}

TEST(Writer, FileRoundTrip) {
  GeneratorConfig cfg;
  cfg.target_body_bytes = 8_KiB;
  cfg.design_name = "roundtrip";
  PartialBitstream bs = Generator(cfg).generate();
  Bytes file = to_file(bs);

  auto parsed = parse_file(file);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().device, kVirtex5Sx50t);
  EXPECT_EQ(parsed.value().bitstream.header.design_name, "roundtrip");
  EXPECT_EQ(parsed.value().bitstream.body, bs.body);
  EXPECT_EQ(parsed.value().bitstream.frames.size(), bs.frames.size());
  EXPECT_TRUE(parsed.value().body.crc_ok);
}

TEST(PacketWriter, FdriUsesType2ForLargePayloads) {
  PacketWriter pw;
  Words payload(5000, 0xCAFEBABEu);
  pw.write_fdri(payload);
  const Words& w = pw.words();
  EXPECT_EQ(packet_type(w[0]), 1u);
  EXPECT_EQ(type1_count(w[0]), 0u);
  EXPECT_EQ(packet_type(w[1]), 2u);
  EXPECT_EQ(type2_count(w[1]), 5000u);
  EXPECT_EQ(w.size(), 5002u);
}

}  // namespace
}  // namespace uparc::bits
