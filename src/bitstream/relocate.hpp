// Partial-bitstream relocation: retarget a module's bitstream to a different
// reconfigurable region by rewriting the FAR packet(s) and recomputing the
// CRC. Standard PR-tooling functionality; lets one generated module image
// serve several identical regions (used by the scrubbing and multi-region
// examples). The rewrite is a visitor of bits::walk_packets, which hands it
// the running CRC at the checksum word; one parse_body of the result then
// validates it and supplies the frames.
#pragma once

#include "bitstream/generator.hpp"
#include "common/result.hpp"

namespace uparc::bits {

/// Rewrites every FAR write in `bs` so the frame data lands starting at
/// `new_start`, patches the CRC word, and rebuilds the ground-truth frame
/// list. The device is the one the body's first IDCODE write names. Fails if
/// the body carries no FAR write or no CRC write.
[[nodiscard]] Result<PartialBitstream> relocate(const PartialBitstream& bs,
                                                FrameAddress new_start);

}  // namespace uparc::bits
