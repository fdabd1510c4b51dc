// Pre-flight bitstream linter (rules bs.* and ct.*).
//
// Statically verifies a bitstream image end-to-end without simulating a
// single cycle: preamble shape (pad / bus-width detect / SYNC), type-1 and
// type-2 packet structure, register and CMD opcode catalogs, FAR targets
// against the device (and optionally a region window), FDRI frame
// alignment, the embedded CRC recomputed and compared, and — for compressed
// containers — a codec-aware dry decode of the wire header and payload.
// Everything the ICAP would reject mid-stream (and some things it would
// not notice until the final CRC) is caught here, before a word is staged.
// The body linter is a visitor of bits::walk_packets, the reader parse_body
// uses too; it is stricter than parse_body on register semantics (unknown
// registers and commands, FDRI before WCFG, IDCODE and FAR bounds).
#pragma once

#include <optional>

#include "analysis/diagnostics.hpp"
#include "bitstream/parser.hpp"
#include "region/region.hpp"

namespace uparc::analysis {

struct BitstreamLintOptions {
  /// When set, every frame touched by the image must fall inside this
  /// window (rule bs.far.region-bounds).
  std::optional<region::RegionGeometry> region;
  /// A stream with no CRC check packet is an error (else a warning).
  bool require_crc = true;
  /// A stream that never reaches DESYNC is an error (else a warning).
  bool require_desync = true;
};

/// Lints a bitstream body (the 32-bit word stream after the file header).
/// Locations are word offsets into `body`.
[[nodiscard]] Report lint_body(const bits::Device& device, WordsView body,
                               const BitstreamLintOptions& opts = {});

/// What the stage gate reads from lint_body: the diagnostic count and the
/// first error (none = the image passes), for the device it linted against.
struct LintVerdict {
  bits::Device device;
  std::size_t diagnostics = 0;
  std::optional<Diagnostic> first_error;
};

/// lint_body with default options, reduced to the gate's verdict.
[[nodiscard]] LintVerdict lint_verdict(const bits::Device& device, WordsView body);

/// Lints a whole .bit file: container header (bs.file.*), then the body.
/// Body diagnostics keep body-relative word offsets.
[[nodiscard]] Report lint_file(const bits::Device& device, BytesView file,
                               const BitstreamLintOptions& opts = {});

/// Lints a compressed container (rules ct.*): wire-header shape (magic,
/// codec id, declared size), a dry decode through the registry codec, and a
/// body lint of the decoded words.
[[nodiscard]] Report lint_container(const bits::Device& device, BytesView container,
                                    const BitstreamLintOptions& opts = {});

}  // namespace uparc::analysis
