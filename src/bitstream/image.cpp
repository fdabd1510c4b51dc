#include "bitstream/image.hpp"

#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"

namespace uparc::bits {
namespace {

std::vector<std::pair<FrameAddress, u32>> signature_pairs(const std::vector<Frame>& frames,
                                                          const std::vector<u32>& crcs) {
  std::vector<std::pair<FrameAddress, u32>> pairs;
  pairs.reserve(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) pairs.emplace_back(frames[i].address, crcs[i]);
  return pairs;
}

}  // namespace

Image::Image(PartialBitstream bs, std::vector<u32> frame_crcs)
    : bs_(std::move(bs)),
      frame_crcs_(std::move(frame_crcs)),
      signature_(signature_pairs(bs_.frames, frame_crcs_)),
      content_fold_(signature_.content_fold()) {
  if (const std::optional<Device> device = identify_device(bs_.body)) {
    lint_ = analysis::lint_verdict(*device, bs_.body);
  }
}

std::vector<u32> frame_data_crcs(const std::vector<Frame>& frames) {
  std::vector<u32> crcs;
  crcs.reserve(frames.size());
  for (const Frame& f : frames) crcs.push_back(crc32_words(f.data));
  return crcs;
}

std::shared_ptr<const Image> Image::build(PartialBitstream bs) {
  std::vector<u32> crcs = bits::frame_data_crcs(bs.frames);
  return std::shared_ptr<const Image>(new Image(std::move(bs), std::move(crcs)));
}

Result<std::shared_ptr<const Image>> Image::relocate(const PartialBitstream& bs,
                                                     std::vector<u32> crcs,
                                                     FrameAddress origin) {
  Result<PartialBitstream> moved = bits::relocate(bs, origin);
  if (!moved.ok()) return moved.error();
  if (moved.value().frames.size() != crcs.size()) {
    return make_error("relocate: the body decodes to other frames than the CRCs describe");
  }
  return std::shared_ptr<const Image>(new Image(std::move(moved).value(), std::move(crcs)));
}

const analysis::LintVerdict* Image::lint_for(const Device& device) const {
  return lint_ && lint_->device == device ? &*lint_ : nullptr;
}

}  // namespace uparc::bits
