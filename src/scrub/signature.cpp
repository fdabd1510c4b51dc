#include "scrub/signature.hpp"

#include <algorithm>

#include "common/crc32.hpp"

namespace uparc::scrub {

GoldenSignature::GoldenSignature(const std::vector<bits::Frame>& frames) {
  entries_.reserve(frames.size());
  addresses_.reserve(frames.size());
  for (const auto& f : frames) {
    entries_.emplace_back(f.address.linear_index(), crc32_words(f.data));
    addresses_.push_back(f.address);
  }
  std::sort(entries_.begin(), entries_.end());
}

GoldenSignature::GoldenSignature(
    const std::vector<std::pair<bits::FrameAddress, u32>>& pairs) {
  entries_.reserve(pairs.size());
  addresses_.reserve(pairs.size());
  for (const auto& [addr, crc] : pairs) {
    entries_.emplace_back(addr.linear_index(), crc);
    addresses_.push_back(addr);
  }
  std::sort(entries_.begin(), entries_.end());
}

const u32* GoldenSignature::expected_crc(const bits::FrameAddress& addr) const {
  const u32 key = addr.linear_index();
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](const auto& e, u32 k) { return e.first < k; });
  if (it == entries_.end() || it->first != key) return nullptr;
  return &it->second;
}

u32 GoldenSignature::content_fold() const {
  Crc32 fold;
  for (const auto& addr : addresses_) {
    if (const u32* crc = expected_crc(addr)) fold.update_word(*crc);
  }
  return fold.value();
}

}  // namespace uparc::scrub
