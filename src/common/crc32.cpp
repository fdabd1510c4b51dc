#include "common/crc32.hpp"

#include <array>
#include <cstddef>

namespace uparc {
namespace {

constexpr u32 kPoly = 0xEDB88320u;  // reflected IEEE 802.3 polynomial

constexpr std::array<u32, 256> make_table() {
  std::array<u32, 256> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

constexpr auto kTable = make_table();

// Slicing tables: kSliced[k][i] is the CRC state after byte i followed by k
// zero bytes, so n bytes fold into the state with n lookups. Twenty tables
// (20 KB) cover four (word, tag) pairs per step.
template <std::size_t N>
constexpr std::array<std::array<u32, 256>, N> make_sliced() {
  std::array<std::array<u32, 256>, N> t{};
  t[0] = make_table();
  for (std::size_t k = 1; k < N; ++k) {
    for (u32 i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr auto kSliced = make_sliced<20>();

/// Folds the four byte lanes of `x`, lowest first, when K, K-1, K-2 and
/// K-3 more bytes follow them in the step.
template <std::size_t K>
constexpr u32 lanes(u32 x) noexcept {
  return kSliced[K][x & 0xFFu] ^ kSliced[K - 1][(x >> 8) & 0xFFu] ^
         kSliced[K - 2][(x >> 16) & 0xFFu] ^ kSliced[K - 3][x >> 24];
}

constexpr u32 bswap32(u32 w) noexcept {
  return (w >> 24) | ((w >> 8) & 0xFF00u) | ((w << 8) & 0xFF0000u) | (w << 24);
}

}  // namespace

void Crc32::update(u8 byte) noexcept {
  state_ = kTable[(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update(BytesView bytes) noexcept {
  // The reflected CRC consumes the lowest lane first, so four bytes in
  // stream order form the lanes of one little-endian word.
  u32 s = state_;
  std::size_t i = 0;
  for (; i + 4 <= bytes.size(); i += 4) {
    s = lanes<3>(s ^ (u32{bytes[i]} | (u32{bytes[i + 1]} << 8) | (u32{bytes[i + 2]} << 16) |
                      (u32{bytes[i + 3]} << 24)));
  }
  state_ = s;
  for (; i < bytes.size(); ++i) update(bytes[i]);
}

void Crc32::update_word(u32 word) noexcept {
  // The reflected CRC consumes the word's big-endian bytes lowest lane
  // first, which is the byte-swapped word.
  state_ = lanes<3>(state_ ^ bswap32(word));
}

void Crc32::update_words(WordsView words) noexcept {
  // Sixteen bytes per step: the state folds into the first word's lanes.
  u32 s = state_;
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    s = lanes<15>(s ^ bswap32(words[i])) ^ lanes<11>(bswap32(words[i + 1])) ^
        lanes<7>(bswap32(words[i + 2])) ^ lanes<3>(bswap32(words[i + 3]));
  }
  state_ = s;
  for (; i < words.size(); ++i) update_word(words[i]);
}

void Crc32::update_tagged(u32 word, u8 tag) noexcept {
  state_ = lanes<4>(state_ ^ bswap32(word)) ^ kSliced[0][tag];
}

void Crc32::update_tagged(WordsView words, u8 tag) noexcept {
  // Twenty bytes per step: the state folds into the first word's lanes,
  // and the four tag lanes are the same in every step.
  const u32 tags = kSliced[15][tag] ^ kSliced[10][tag] ^ kSliced[5][tag] ^ kSliced[0][tag];
  u32 s = state_;
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    s = lanes<19>(s ^ bswap32(words[i])) ^ lanes<14>(bswap32(words[i + 1])) ^
        lanes<9>(bswap32(words[i + 2])) ^ lanes<4>(bswap32(words[i + 3])) ^ tags;
  }
  state_ = s;
  for (; i < words.size(); ++i) update_tagged(words[i], tag);
}

u32 crc32(BytesView bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

u32 crc32_words(WordsView words) noexcept {
  Crc32 c;
  c.update_words(words);
  return c.value();
}

}  // namespace uparc
