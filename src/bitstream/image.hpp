// One bitstream and the host-side facts every load reads from it, computed
// once: its per-frame data CRCs, the readback signature and cache content
// fold built from them, and the stage gate's lint verdict. UPaRC's host
// compresses a module offline once and the Manager preloads it many times;
// an Image gives the simulator's own host-side work on a module the same
// shape. Images are immutable and shared as std::shared_ptr<const Image>,
// so every device of a fleet, on any executor thread, reads one image
// without a lock. region::ModuleLibrary builds one per (module, region
// origin) at setup (DESIGN §19).
//
// The PartialBitstream entry points (cache::key_of, scrub::GoldenSignature
// over frames, analysis::lint_body, bits::relocate, core::Uparc::stage)
// still compute from scratch: they are the reference the memo is tested
// against.
#pragma once

#include <memory>
#include <optional>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/generator.hpp"
#include "scrub/signature.hpp"

namespace uparc::bits {

class Image {
 public:
  /// Hashes every frame of `bs` and lints its body against the device its
  /// first IDCODE write names (no verdict when it names none).
  [[nodiscard]] static std::shared_ptr<const Image> build(PartialBitstream bs);

  /// bits::relocate(bs, origin) as an Image, with the relocated body
  /// linted. Relocation rewrites only addresses and frame-data CRCs leave
  /// addresses out, so `crcs`, the frame_data_crcs() of `bs`, are reused, not
  /// recomputed; the frames of `bs` must be the ones its body decodes to.
  [[nodiscard]] static Result<std::shared_ptr<const Image>> relocate(
      const PartialBitstream& bs, std::vector<u32> crcs, FrameAddress origin);

  [[nodiscard]] const PartialBitstream& bitstream() const noexcept { return bs_; }
  /// crc32_words of each frame's data, in frame order.
  [[nodiscard]] const std::vector<u32>& frame_crcs() const noexcept { return frame_crcs_; }
  /// The readback-verify signature of the frames.
  [[nodiscard]] const scrub::GoldenSignature& signature() const noexcept {
    return signature_;
  }
  /// signature().content_fold(): the content word of a relocatable cache key.
  [[nodiscard]] u32 content_fold() const noexcept { return content_fold_; }
  /// The stage gate's verdict on the body for `device`; nullptr when the
  /// image was linted for another device, or for none.
  [[nodiscard]] const analysis::LintVerdict* lint_for(const Device& device) const;

 private:
  Image(PartialBitstream bs, std::vector<u32> frame_crcs);

  PartialBitstream bs_;
  std::vector<u32> frame_crcs_;
  scrub::GoldenSignature signature_;
  u32 content_fold_;
  std::optional<analysis::LintVerdict> lint_;
};

/// crc32_words of each frame's data, in frame order.
[[nodiscard]] std::vector<u32> frame_data_crcs(const std::vector<Frame>& frames);

}  // namespace uparc::bits
