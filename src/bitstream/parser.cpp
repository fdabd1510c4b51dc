#include "bitstream/parser.hpp"

#include <algorithm>
#include <array>

#include "bitstream/header.hpp"

namespace uparc::bits {

std::string_view describe(PacketDefect d) {
  static constexpr std::array<std::string_view, 7> kText = {
      "NOP packet declares a payload", "read packets unsupported in partial bitstream",
      "type-2 packet without preceding type-1 select", "unknown packet type",
      "packet payload overruns body", "type-1 select with no type-2 payload",
      "expected type-2 packet after select"};
  return kText[static_cast<std::size_t>(d)];
}

PacketWalk walk_packets(WordsView body, PacketVisitor& v) {
  PacketWalk out;
  auto i = static_cast<std::size_t>(std::find(body.begin(), body.end(), kSyncWord) -
                                    body.begin());
  out.synced = i < body.size();
  if (out.synced) ++i;
  auto fail = [&](PacketDefect d, std::size_t at) {
    (void)v.on_defect(d, at);
    out.defect = d;
    return out;
  };
  ConfigCrc crc;
  while (i < body.size()) {
    const std::size_t at = i;
    const u32 header = body[i++];
    if (header == kDummyWord || header == kNoopWord) continue;
    const u32 type = packet_type(header);
    if (type != 1) {
      return fail(type == 2 ? PacketDefect::kOrphanType2 : PacketDefect::kUnknownType, at);
    }
    const Opcode op = packet_opcode(header);
    u32 count = type1_count(header);
    if (op == Opcode::kNop) {
      // A NOP's declared payload would be misread as packet headers.
      if (count != 0) return fail(PacketDefect::kNopPayload, at);
      continue;
    }
    if (op == Opcode::kRead) {
      if (v.on_defect(PacketDefect::kRead, at)) continue;
      out.defect = PacketDefect::kRead;
      return out;
    }
    const ConfigReg reg = packet_reg(header);
    v.on_header(reg, at);
    std::size_t count_at = at;
    if (count == 0) {
      // A zero-count select: the type-2 packet with the payload follows,
      // possibly after NOOPs.
      while (i < body.size() && body[i] == kNoopWord) ++i;
      if (i == body.size()) return fail(PacketDefect::kSelectAtEnd, at);
      count_at = i;
      if (packet_type(body[i]) != 2) return fail(PacketDefect::kSelectNotType2, i);
      count = type2_count(body[i++]);
    }
    if (count > body.size() - i) return fail(PacketDefect::kOverrun, count_at);
    const PacketWrite w{reg, i, count, crc.value()};
    i += count;
    if (!v.on_write(w)) break;
    crc.write(reg, body.subspan(w.payload, count));
    if (reg == ConfigReg::kCmd && count > 0) {
      const auto cmd = static_cast<Command>(body[w.payload]);
      if (cmd == Command::kRcrc) crc.reset();
      if (cmd == Command::kDesync) {
        out.desynced = true;
        break;
      }
    }
  }
  out.end = i;
  return out;
}

std::optional<Device> identify_device(WordsView body) {
  struct FirstIdcode final : PacketVisitor {
    WordsView body;
    std::optional<u32> idcode;
    explicit FirstIdcode(WordsView b) : body(b) {}
    bool on_write(const PacketWrite& w) override {
      if (w.reg == ConfigReg::kIdcode && w.count > 0) idcode = body[w.payload];
      return !idcode;
    }
  } first(body);
  walk_packets(body, first);
  return first.idcode ? device_by_idcode(*first.idcode) : std::nullopt;
}

namespace {

/// parse_body's visitor: FAR/IDCODE/WCFG state, the embedded CRC compared
/// against the running value, and the frame data written after CMD WCFG.
struct BodyParser final : PacketVisitor {
  WordsView body;
  ParsedBody& out;
  FrameAddress far{};
  bool wcfg = false;
  Words fdri;

  BodyParser(WordsView b, ParsedBody& o) : body(b), out(o) {}
  bool on_write(const PacketWrite& w) override {
    const WordsView data = body.subspan(w.payload, w.count);
    switch (w.reg) {
      case ConfigReg::kCrc:
        out.crc_checked = true;
        if (!data.empty()) out.crc_ok = (data[0] == w.crc);
        break;
      case ConfigReg::kFar:
        if (!data.empty()) far = FrameAddress::unpack(data[0]);
        break;
      case ConfigReg::kIdcode:
        if (!data.empty()) out.idcode = data[0];
        break;
      case ConfigReg::kCmd:
        if (!data.empty() && static_cast<Command>(data[0]) == Command::kWcfg) wcfg = true;
        break;
      case ConfigReg::kFdri:
        if (!wcfg) break;
        if (fdri.empty()) {
          out.start_address = far;
          out.fdri_offset = w.payload;
        }
        fdri.insert(fdri.end(), data.begin(), data.end());
        break;
      default:
        break;
    }
    return true;
  }
};

}  // namespace

Result<ParsedBody> parse_body(const Device& device, WordsView body) {
  ParsedBody out;
  BodyParser parser(body, out);
  const PacketWalk walk = walk_packets(body, parser);
  if (!walk.synced) return make_error("no sync word in body", ErrorCause::kBadInput);
  if (walk.defect) return make_error(std::string(describe(*walk.defect)), ErrorCause::kBadInput);
  out.saw_sync = true;
  out.desynced = walk.desynced;
  if (!parser.fdri.empty()) {
    if (parser.fdri.size() % device.frame_words != 0) {
      return make_error("FDRI payload is not a whole number of frames", ErrorCause::kBadInput);
    }
    out.frames = split_frames(device, out.start_address, parser.fdri);
  }
  return out;
}

Result<ParsedFile> parse_file(BytesView file) {
  auto ph = parse_header(file);
  if (!ph.ok()) return ph.error();
  const auto& parsed = ph.value();
  if (parsed.header.body_bytes % 4 != 0) {
    return make_error("body is not word aligned", ErrorCause::kBadInput);
  }
  PartialBitstream bs;
  bs.header = parsed.header;
  bs.body = bytes_to_words(file.subspan(parsed.body_offset, parsed.header.body_bytes));
  const std::optional<Device> device = identify_device(bs.body);
  if (!device) return make_error("no IDCODE write names a known device", ErrorCause::kBadInput);
  auto body = parse_body(*device, bs.body);
  if (!body.ok()) return body.error();
  bs.frames = std::move(body.value().frames);
  return ParsedFile{*device, std::move(bs), std::move(body).value()};
}

}  // namespace uparc::bits
