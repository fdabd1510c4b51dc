// The host's one reader of the configuration packet stream (UG191 type-1 /
// type-2 framing): `walk_packets` hands each register write to a visitor,
// and parse_body, relocation and the bitstream linter are its visitors. The
// ICAP model decodes independently, word by word: it is the simulated device
// this reader is tested against.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "bitstream/generator.hpp"

namespace uparc::bits {

/// Structural defects of the packet grammar. kRead is the only one a
/// visitor may step over; every other defect ends the walk.
enum class PacketDefect : u8 {
  kNopPayload,      ///< a NOP type-1 header declares a payload
  kRead,            ///< a read packet
  kOrphanType2,     ///< a type-2 header with no zero-count select before it
  kUnknownType,     ///< a header whose type is neither 1 nor 2
  kOverrun,         ///< a declared payload runs past the end of the body
  kSelectAtEnd,     ///< a zero-count select with no word after it
  kSelectNotType2,  ///< a zero-count select followed by a non-type-2 word
};
[[nodiscard]] std::string_view describe(PacketDefect d);

/// One register write: `count` payload words from body index `payload`,
/// and the running configuration CRC before them.
struct PacketWrite {
  ConfigReg reg;
  std::size_t payload;
  u32 count;
  u32 crc;
};

/// Receives the packet stream, one call per packet (never per word).
class PacketVisitor {
 public:
  /// A write's type-1 header at `at`, before its payload is framed.
  virtual void on_header(ConfigReg, std::size_t /*at*/) {}
  /// May rewrite the payload in place (the walked body may alias storage
  /// the visitor owns) before the walk hashes it; false ends the walk.
  virtual bool on_write(const PacketWrite& w) = 0;
  /// `at` is the offending header; true steps over a kRead.
  virtual bool on_defect(PacketDefect, std::size_t /*at*/) { return false; }

 protected:
  ~PacketVisitor() = default;
};

struct PacketWalk {
  bool synced = false;                 ///< the body has a SYNC word
  bool desynced = false;               ///< stopped at CMD DESYNC
  std::optional<PacketDefect> defect;  ///< stopped at this defect
  std::size_t end = 0;                 ///< first word not consumed, if no defect
};

/// Decodes `body` from its first SYNC word. CMD RCRC resets the CRC and CMD
/// DESYNC ends the walk, both acting on a write's first payload word.
PacketWalk walk_packets(WordsView body, PacketVisitor& v);

/// The device named by the first IDCODE write (the walk ends there).
[[nodiscard]] std::optional<Device> identify_device(WordsView body);

/// Fully decoded bitstream body.
struct ParsedBody {
  std::vector<Frame> frames;      ///< FDRI payload split into frames
  FrameAddress start_address{};   ///< FAR value when FDRI data began
  std::size_t fdri_offset = 0;    ///< body index of the first frame-data word
  u32 idcode = 0;
  bool saw_sync = false;
  bool desynced = false;
  bool crc_checked = false;
  bool crc_ok = false;
};

/// Parses a bitstream body (32-bit words after the file header). Returns an
/// error for malformed packet structure; CRC mismatch is reported in-band
/// via `crc_checked`/`crc_ok` (that is a data error, not a format error).
[[nodiscard]] Result<ParsedBody> parse_body(const Device& device, WordsView body);

/// A whole .bit file, as parse_file reads it.
struct ParsedFile {
  Device device;               ///< named by the body's first IDCODE write
  PartialBitstream bitstream;  ///< header, body words and frames
  ParsedBody body;             ///< the body's parse; its frames are in `bitstream`
};

/// The one reader of .bit files: the header, the word-aligned body, the
/// device the body's first IDCODE write names, and the parsed body.
[[nodiscard]] Result<ParsedFile> parse_file(BytesView file);

}  // namespace uparc::bits
