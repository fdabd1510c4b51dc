// CRC-32 (IEEE 802.3 polynomial) used to protect bitstream payloads, mirroring
// the CRC packets a Xilinx bitstream carries.
#pragma once

#include "common/types.hpp"

namespace uparc {

/// Streaming CRC-32; feed bytes or words, then read `value()`.
class Crc32 {
 public:
  Crc32() = default;

  /// Bytewise table step; the reference the word path is tested against.
  void update(u8 byte) noexcept;
  void update(BytesView bytes) noexcept;
  /// Feeds a 32-bit word in big-endian byte order (bitstream word order),
  /// four bytes per step through sliced tables; equals four update(u8).
  void update_word(u32 word) noexcept;
  /// Feeds `word` then the byte `tag` in one five-lane step; equals
  /// update_word(word) then update(tag).
  void update_tagged(u32 word, u8 tag) noexcept;
  /// Feeds each word of `words` followed by `tag`, four words per
  /// twenty-lane step; equals update_tagged(w, tag) for every w in order.
  void update_tagged(WordsView words, u8 tag) noexcept;

  [[nodiscard]] u32 value() const noexcept { return ~state_; }
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  u32 state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte buffer.
[[nodiscard]] u32 crc32(BytesView bytes) noexcept;
/// One-shot CRC-32 of a word stream (big-endian word bytes).
[[nodiscard]] u32 crc32_words(WordsView words) noexcept;

}  // namespace uparc
