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

// Slicing-by-4: kSliced[k][i] is the CRC state after byte i followed by k
// zero bytes, so four bytes fold into the state with four lookups.
constexpr std::array<std::array<u32, 256>, 4> make_sliced() {
  std::array<std::array<u32, 256>, 4> t{};
  t[0] = make_table();
  for (std::size_t k = 1; k < 4; ++k) {
    for (u32 i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr auto kSliced = make_sliced();

constexpr u32 bswap32(u32 w) noexcept {
  return (w >> 24) | ((w >> 8) & 0xFF00u) | ((w << 8) & 0xFF0000u) | (w << 24);
}

}  // namespace

void Crc32::update(u8 byte) noexcept {
  state_ = kTable[(state_ ^ byte) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update(BytesView bytes) noexcept {
  for (u8 b : bytes) update(b);
}

void Crc32::update_word(u32 word) noexcept {
  // The reflected CRC consumes the word's big-endian bytes lowest lane
  // first, which is the byte-swapped word.
  const u32 x = state_ ^ bswap32(word);
  state_ = kSliced[3][x & 0xFFu] ^ kSliced[2][(x >> 8) & 0xFFu] ^
           kSliced[1][(x >> 16) & 0xFFu] ^ kSliced[0][x >> 24];
}

u32 crc32(BytesView bytes) noexcept {
  Crc32 c;
  c.update(bytes);
  return c.value();
}

u32 crc32_words(WordsView words) noexcept {
  Crc32 c;
  for (u32 w : words) c.update_word(w);
  return c.value();
}

}  // namespace uparc
