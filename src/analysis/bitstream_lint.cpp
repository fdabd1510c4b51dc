#include "analysis/bitstream_lint.hpp"

#include <algorithm>
#include <cstdio>

#include "bitstream/header.hpp"
#include "compress/registry.hpp"

namespace uparc::analysis {
namespace {

using namespace uparc::bits;

[[nodiscard]] std::string hex32(u32 w) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08X", w);
  return buf;
}

[[nodiscard]] bool is_pad(u32 w) { return w == kDummyWord || w == kNoopWord; }

[[nodiscard]] bool known_reg(ConfigReg reg) {
  switch (reg) {
    case ConfigReg::kCrc:
    case ConfigReg::kFar:
    case ConfigReg::kFdri:
    case ConfigReg::kFdro:
    case ConfigReg::kCmd:
    case ConfigReg::kCtl0:
    case ConfigReg::kMask:
    case ConfigReg::kStat:
    case ConfigReg::kLout:
    case ConfigReg::kCor0:
    case ConfigReg::kIdcode:
      return true;
  }
  return false;
}

[[nodiscard]] bool known_cmd(u32 value) {
  switch (static_cast<Command>(value)) {
    case Command::kNull:
    case Command::kWcfg:
    case Command::kLfrm:
    case Command::kRcfg:
    case Command::kRcrc:
    case Command::kDesync:
      return true;
  }
  return false;
}

/// The configuration-plane model defines block types 0 (interconnect/CLB),
/// 1 (BRAM content) and 2 (special frames); anything else is outside the
/// device model.
[[nodiscard]] bool far_in_device(const FrameAddress& a) { return a.block_type <= 2; }

/// The linter's visitor of bits::walk_packets: collects diagnostics instead
/// of stopping at the first defect the way bits::parse_body does.
class BodyLinter final : public PacketVisitor {
 public:
  BodyLinter(const Device& device, WordsView body, const BitstreamLintOptions& opts,
             Report& report)
      : device_(device), body_(body), opts_(opts), r_(report) {}

  void run() {
    if (!lint_preamble()) return;
    const PacketWalk walk = walk_packets(body_, *this);
    lint_fdri_frames();
    // After a structural abort the missing-CRC/DESYNC checks would only
    // restate that the stream is broken; skip them.
    if (!walk.defect) lint_epilogue(walk);
  }

 private:
  /// Returns false when no SYNC exists (nothing past the preamble to lint).
  bool lint_preamble() {
    const std::size_t sync = static_cast<std::size_t>(
        std::find(body_.begin(), body_.end(), kSyncWord) - body_.begin());
    if (sync == body_.size()) {
      // Point at the first word that stops looking like a preamble — on a
      // corrupted image that is where the SYNC word used to be.
      std::size_t off = 0;
      while (off < body_.size() &&
             (body_[off] == kDummyWord || body_[off] == kBusWidthSync ||
              body_[off] == kBusWidthDetect)) {
        ++off;
      }
      r_.error("bs.preamble.sync", Location::word(off),
               "no SYNC word (0xAA995566) in the body",
               "emit the standard prologue: pad words, bus-width detect, SYNC");
      return false;
    }

    bool buswidth = false;
    for (std::size_t k = 0; k < sync; ++k) {
      const u32 w = body_[k];
      if (w == kDummyWord) continue;
      if (w == kBusWidthSync && k + 1 < sync && body_[k + 1] == kBusWidthDetect) {
        buswidth = true;
        ++k;
        continue;
      }
      r_.warning("bs.preamble.pad", Location::word(k),
                 "unexpected word " + hex32(w) + " before SYNC",
                 "only dummy pad (0xFFFFFFFF) and the bus-width detect pair belong here");
      break;  // one representative diagnostic; the rest is the same defect
    }
    if (!buswidth) {
      r_.warning("bs.preamble.buswidth", Location::word(0),
                 "no bus-width detect sequence (0x000000BB 0x11220044) before SYNC",
                 "real configuration logic auto-detects the bus width from this pair");
    }
    return true;
  }

  void on_header(ConfigReg reg, std::size_t at) override {
    if (!known_reg(reg)) {
      r_.error("bs.reg.unknown", Location::word(at),
               "write to unknown configuration register address " +
                   std::to_string(static_cast<u32>(reg)));
    }
  }

  bool on_defect(PacketDefect d, std::size_t at) override {
    const u32 header = body_[at];
    const Location loc = Location::word(at);
    switch (d) {
      case PacketDefect::kNopPayload:
        r_.error("bs.packet.nop-count", loc,
                 "NOP type-1 packet declares a " + std::to_string(type1_count(header)) +
                     "-word payload",
                 "NOP packets carry no payload; the words after this header would be "
                 "misparsed as packet headers");
        break;
      case PacketDefect::kRead:
        r_.error("bs.packet.read", loc, "read packet in a partial bitstream",
                 "configuration streams are write-only; readback uses a separate flow");
        return true;  // read packets carry no inline payload; keep walking
      case PacketDefect::kOrphanType2:
        r_.error("bs.packet.orphan-type2", loc,
                 "type-2 packet without a preceding zero-count type-1 select",
                 "a type-2 payload must follow a type-1 header that selects the register");
        break;
      case PacketDefect::kUnknownType:
        r_.error("bs.packet.unknown-type", loc,
                 "unknown packet type " + std::to_string(packet_type(header)) +
                     " in header " + hex32(header));
        break;
      case PacketDefect::kOverrun: {
        const u32 type = packet_type(header);
        const u32 count = type == 2 ? type2_count(header) : type1_count(header);
        r_.error("bs.packet.overrun", loc,
                 "type-" + std::to_string(type) + " payload of " + std::to_string(count) +
                     " words overruns the body (" + std::to_string(body_.size() - at - 1) +
                     " words left)",
                 "the image is truncated or the word count is corrupt");
        break;
      }
      case PacketDefect::kSelectAtEnd:
        r_.error("bs.packet.dangling-select", loc,
                 "type-1 select with no type-2 payload before end of body");
        break;
      case PacketDefect::kSelectNotType2:
        r_.error("bs.packet.dangling-select", loc,
                 "expected a type-2 packet after the type-1 select, got " + hex32(header));
        break;
    }
    return false;
  }

  bool on_write(const PacketWrite& w) override {
    const std::size_t data_pos = w.payload;
    if (w.reg == ConfigReg::kCrc && w.count > 0) {
      // Compare the embedded checksum against the value recomputed over
      // everything hashed so far (before the CRC word perturbs it).
      const u32 embedded = body_[data_pos];
      crc_checked_ = true;
      if (embedded != w.crc) {
        r_.error("bs.crc.mismatch", Location::word(data_pos),
                 "embedded CRC " + hex32(embedded) + " != recomputed " + hex32(w.crc),
                 "the image was corrupted after generation, or a register write was "
                 "reordered");
      }
    }

    switch (w.reg) {
      case ConfigReg::kFar:
        if (w.count > 0) {
          far_ = FrameAddress::unpack(body_[data_pos]);
          if (!far_in_device(far_)) {
            r_.error("bs.far.device-bounds", Location::word(data_pos),
                     "FAR " + hex32(body_[data_pos]) + " targets block type " +
                         std::to_string(far_.block_type) + ", outside the device model",
                     "only block types 0-2 exist on " + std::string(device_.name));
          }
        }
        break;
      case ConfigReg::kIdcode:
        if (w.count > 0) {
          idcode_pos_ = data_pos;
          if (body_[data_pos] != device_.idcode) {
            r_.error("bs.idcode.mismatch", Location::word(data_pos),
                     "IDCODE " + hex32(body_[data_pos]) + " does not match " +
                         std::string(device_.name) + " (" + hex32(device_.idcode) + ")",
                     "the image was built for a different part; the ICAP would reject it");
          }
        }
        break;
      case ConfigReg::kCmd:
        if (w.count > 0) {
          const u32 cmd = body_[data_pos];
          if (!known_cmd(cmd)) {
            r_.error("bs.cmd.unknown", Location::word(data_pos),
                     "unknown CMD opcode " + std::to_string(cmd));
          } else {
            const auto c = static_cast<Command>(cmd);
            if (c == Command::kWcfg) wcfg_active_ = true;
            if (c == Command::kDesync) desync_pos_ = data_pos;
          }
        }
        break;
      case ConfigReg::kFdri:
        if (!wcfg_active_) {
          r_.error("bs.fdri.no-wcfg", Location::word(data_pos),
                   "FDRI frame data without a preceding CMD WCFG",
                   "write CMD=WCFG before streaming frame data");
        }
        if (fdri_words_ == 0) {
          fdri_start_ = far_;
          fdri_pos_ = data_pos;
        }
        fdri_words_ += w.count;
        break;
      default:
        break;
    }
    return true;
  }

  void lint_fdri_frames() {
    if (fdri_words_ == 0) return;
    const u32 fw = device_.frame_words;
    if (fdri_words_ % fw != 0) {
      r_.error("bs.fdri.alignment", Location::word(fdri_pos_),
               "FDRI payload of " + std::to_string(fdri_words_) +
                   " words is not a whole number of " + std::to_string(fw) +
                   "-word frames");
      return;
    }
    const std::size_t frames = fdri_words_ / fw;
    if (frames > device_.frames) {
      r_.error("bs.far.device-bounds", Location::word(fdri_pos_),
               "image writes " + std::to_string(frames) + " frames but " +
                   std::string(device_.name) + " only has " +
                   std::to_string(device_.frames));
      return;
    }
    // Walk the auto-increment address sequence the FDRI path would follow
    // and bounds-check every frame it touches.
    FrameAddress addr = fdri_start_;
    for (std::size_t f = 0; f < frames; ++f, addr = next_frame_address(addr)) {
      const Location at = Location::word(fdri_pos_ + f * fw);
      if (!far_in_device(addr)) {
        r_.error("bs.far.device-bounds", at,
                 "frame " + std::to_string(f) + " lands at block type " +
                     std::to_string(addr.block_type) + ", outside the device model");
        break;
      }
      if (opts_.region && !opts_.region->covers(addr)) {
        r_.error("bs.far.region-bounds", at,
                 "frame " + std::to_string(f) + " (top=" + std::to_string(addr.top) +
                     " row=" + std::to_string(addr.row) +
                     " column=" + std::to_string(addr.column) +
                     " minor=" + std::to_string(addr.minor) +
                     ") falls outside the expected region window",
                 "relocate the bitstream to the region origin, or fix the floorplan");
        break;
      }
    }
  }

  void lint_epilogue(const PacketWalk& walk) {
    if (idcode_pos_ == kNoPos) {
      r_.warning("bs.idcode.missing", Location::word(body_.size() ? body_.size() - 1 : 0),
                 "body writes no IDCODE; the ICAP cannot verify the target part");
    }
    if (!crc_checked_) {
      const auto loc = Location::word(walk.desynced ? desync_pos_ : body_.size());
      const std::string msg = "stream carries no CRC check packet";
      const std::string hint = "write the CRC register with the running checksum before DESYNC";
      if (opts_.require_crc) {
        r_.error("bs.crc.missing", loc, msg, hint);
      } else {
        r_.warning("bs.crc.missing", loc, msg, hint);
      }
    }
    if (!walk.desynced) {
      const std::string msg = "stream never reaches CMD DESYNC";
      const std::string hint = "end the body with CMD=DESYNC so the port releases cleanly";
      if (opts_.require_desync) {
        r_.error("bs.epilogue.desync", Location::word(body_.size()), msg, hint);
      } else {
        r_.warning("bs.epilogue.desync", Location::word(body_.size()), msg, hint);
      }
      return;
    }
    for (std::size_t k = walk.end; k < body_.size(); ++k) {
      if (!is_pad(body_[k])) {
        r_.warning("bs.epilogue.trailer", Location::word(k),
                   "non-pad word " + hex32(body_[k]) + " after DESYNC",
                   "trailing data is never consumed; only pad/NOOP words belong here");
        break;
      }
    }
  }

  static constexpr std::size_t kNoPos = ~std::size_t{0};

  const Device& device_;
  WordsView body_;
  const BitstreamLintOptions& opts_;
  Report& r_;

  FrameAddress far_{};
  FrameAddress fdri_start_{};
  std::size_t fdri_pos_ = 0;
  std::size_t fdri_words_ = 0;
  std::size_t idcode_pos_ = kNoPos;
  std::size_t desync_pos_ = 0;
  bool wcfg_active_ = false;
  bool crc_checked_ = false;
};

}  // namespace

Report lint_body(const bits::Device& device, WordsView body,
                 const BitstreamLintOptions& opts) {
  Report r;
  if (body.empty()) {
    r.error("bs.preamble.sync", Location::word(0), "empty bitstream body");
    return r;
  }
  BodyLinter(device, body, opts, r).run();
  return r;
}

LintVerdict lint_verdict(const bits::Device& device, WordsView body) {
  const Report report = lint_body(device, body);
  LintVerdict verdict{device, report.diagnostics().size(), std::nullopt};
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::kError) continue;
    verdict.first_error = d;
    break;
  }
  return verdict;
}

Report lint_file(const bits::Device& device, BytesView file,
                 const BitstreamLintOptions& opts) {
  Report r;
  auto parsed = bits::parse_header(file);
  if (!parsed.ok()) {
    r.error("bs.file.header", Location::byte(0),
            ".bit header does not parse: " + parsed.error().message);
    return r;
  }
  const auto& ph = parsed.value();
  if (ph.header.body_bytes % 4 != 0) {
    r.error("bs.file.alignment", Location::byte(ph.body_offset),
            "declared body of " + std::to_string(ph.header.body_bytes) +
                " bytes is not 32-bit aligned");
    return r;
  }
  const Words body =
      bytes_to_words(file.subspan(ph.body_offset, ph.header.body_bytes));
  r.merge(lint_body(device, body, opts));
  return r;
}

Report lint_container(const bits::Device& device, BytesView container,
                      const BitstreamLintOptions& opts) {
  Report r;
  if (container.size() < compress::wire::kHeaderBytes) {
    r.error("ct.header.truncated", Location::byte(container.size()),
            "container of " + std::to_string(container.size()) +
                " bytes is shorter than the " +
                std::to_string(compress::wire::kHeaderBytes) + "-byte wire header");
    return r;
  }
  if (container[0] != compress::wire::kMagic) {
    r.error("ct.header.magic", Location::byte(0),
            "bad container magic " + hex32(container[0]) + " (expected " +
                hex32(compress::wire::kMagic) + ")");
    return r;
  }
  auto codec = compress::make_codec(static_cast<compress::CodecId>(container[1]));
  if (codec == nullptr) {
    r.error("ct.header.codec", Location::byte(1),
            "unknown codec id " + std::to_string(container[1]),
            "the codec-id byte must name a codec in the registry");
    return r;
  }
  const std::size_t declared = (std::size_t{container[2]} << 24) |
                               (std::size_t{container[3]} << 16) |
                               (std::size_t{container[4]} << 8) | std::size_t{container[5]};
  if (declared == 0) {
    r.error("ct.header.size", Location::byte(2), "declared original size is zero");
    return r;
  }
  // Codec-aware dry decode: run the registry decoder over the payload
  // without staging anything; a malformed stream fails here instead of in
  // the fabric decompressor mid-reconfiguration.
  auto decoded = codec->decompress(container);
  if (!decoded.ok()) {
    r.error("ct.payload.decode", Location::byte(compress::wire::kHeaderBytes),
            std::string(codec->name()) + " dry decode failed: " + decoded.error().message);
    return r;
  }
  const Bytes& payload = decoded.value();
  if (payload.size() != declared) {
    r.error("ct.payload.size", Location::byte(2),
            "dry decode produced " + std::to_string(payload.size()) +
                " bytes but the header declares " + std::to_string(declared));
  }
  if (!r.clean()) return r;
  // A container may wrap either a raw body (the Manager's preload path) or
  // a whole .bit file (the CLI's compress flow); lint whichever decoded.
  if (bits::parse_header(payload).ok()) {
    r.merge(lint_file(device, payload, opts));
    return r;
  }
  if (payload.size() % 4 != 0) {
    r.error("ct.payload.size", Location::byte(2),
            "decoded payload of " + std::to_string(payload.size()) +
                " bytes is neither a .bit file nor a whole number of "
                "configuration words");
    return r;
  }
  r.merge(lint_body(device, bytes_to_words(payload), opts));
  return r;
}

}  // namespace uparc::analysis
