#include "bitstream/relocate.hpp"

#include "bitstream/parser.hpp"

namespace uparc::bits {
namespace {

/// relocate's visitor: rewrites the FAR payload and patches the CRC word
/// with the checksum the walk recomputed over the rewritten stream.
struct FarCrcPatch final : PacketVisitor {
  Words& body;
  u32 far;
  std::size_t far_words = 0;
  bool crc_seen = false;

  FarCrcPatch(Words& b, FrameAddress start) : body(b), far(start.pack()) {}
  bool on_write(const PacketWrite& w) override {
    if (w.count > 0 && w.reg == ConfigReg::kFar) {
      far_words += w.count;  // more than one word is refused below
      body[w.payload] = far;
    }
    if (w.count > 0 && w.reg == ConfigReg::kCrc) {
      crc_seen = true;
      body[w.payload] = w.crc;
    }
    return true;
  }
};

/// Relocates `body` in place; returns the validating parse of the result.
Result<ParsedBody> relocate_in_place(const Device& device, Words& body, FrameAddress new_start) {
  FarCrcPatch patch(body, new_start);
  const PacketWalk walk = walk_packets(body, patch);
  if (!walk.synced) return make_error("relocate: no sync word");
  if (walk.defect) return make_error("relocate: " + std::string(describe(*walk.defect)));
  if (patch.far_words == 0) return make_error("relocate: body carries no FAR write");
  if (patch.far_words > 1) {
    return make_error("relocate: multi-FAR bodies unsupported (multiple regions)");
  }
  if (!patch.crc_seen) return make_error("relocate: body carries no CRC write");

  // Validate by parsing: the CRC must check out at the new address.
  auto parsed = parse_body(device, body);
  if (parsed.ok() && !parsed.value().crc_ok) {
    return make_error("relocate: internal CRC patch failed");
  }
  return parsed;
}

}  // namespace

Result<Words> relocate_body(const Device& device, WordsView body, FrameAddress new_start) {
  Words out(body.begin(), body.end());
  auto parsed = relocate_in_place(device, out, new_start);
  if (!parsed.ok()) return parsed.error();
  return out;
}

Result<PartialBitstream> relocate(const PartialBitstream& bs, FrameAddress new_start) {
  const std::optional<Device> device = identify_device(bs.body);
  if (!device) return make_error("relocate: could not identify device from IDCODE");
  PartialBitstream out{bs.header, bs.body, bs.fdri_offset, bs.fdri_words, {}};
  auto parsed = relocate_in_place(*device, out.body, new_start);
  if (!parsed.ok()) return parsed.error();
  out.frames = std::move(parsed.value().frames);
  if (!out.frames.empty()) {
    // Refresh the hints from the parse (they may be absent on bitstreams
    // reconstructed from files).
    out.fdri_offset = parsed.value().fdri_offset;
    out.fdri_words = out.frames.size() * device->frame_words;
  }
  return out;
}

}  // namespace uparc::bits
