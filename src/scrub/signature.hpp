// Golden signature of a region: the per-frame CRC32s a readback verify
// compares against, and the address-free content fold the bitstream cache
// keys on. It depends only on frames, so a bits::Image can hold one.
#pragma once

#include <utility>
#include <vector>

#include "bitstream/frame.hpp"

namespace uparc::scrub {

/// Golden signature of a region: per-frame CRC32 of the expected content.
class GoldenSignature {
 public:
  explicit GoldenSignature(const std::vector<bits::Frame>& frames);
  /// Rebuilds a signature from (address, crc) pairs in frame order — the
  /// crash-recovery path, where the frames themselves are gone with the
  /// crashed controller and only the WAL's signature survives, and the
  /// path of a bits::Image, which hashes its frames once.
  explicit GoldenSignature(const std::vector<std::pair<bits::FrameAddress, u32>>& pairs);

  [[nodiscard]] std::size_t frame_count() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<bits::FrameAddress>& addresses() const noexcept {
    return addresses_;
  }
  /// CRC expected for the frame at `addr`; nullptr if not in the region.
  [[nodiscard]] const u32* expected_crc(const bits::FrameAddress& addr) const;
  /// Sorted (linear index, crc) pairs; two signatures describe the same
  /// content iff these compare equal.
  [[nodiscard]] const std::vector<std::pair<u32, u32>>& entries() const noexcept {
    return entries_;
  }
  /// CRC32 over the expected CRCs in frame order. Addresses are left out,
  /// so a relocated image folds to the same word (the cache content key).
  [[nodiscard]] u32 content_fold() const;

 private:
  std::vector<std::pair<u32, u32>> entries_;  // (linear index, crc), sorted
  std::vector<bits::FrameAddress> addresses_;
};

}  // namespace uparc::scrub
