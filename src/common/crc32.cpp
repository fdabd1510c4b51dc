#include "common/crc32.hpp"

#include <array>
#include <cstddef>

#include "common/crc32_kernels.hpp"

#if UPARC_CRC32_CLMUL
#include <cpuid.h>
#include <immintrin.h>
#endif

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

constexpr u32 byte_step(u32 s, u8 byte) noexcept { return kTable[(s ^ byte) & 0xFFu] ^ (s >> 8); }

// The reflected CRC consumes a word's big-endian bytes lowest lane first,
// which is the byte-swapped word.
constexpr u32 word_step(u32 s, u32 word) noexcept { return lanes<3>(s ^ bswap32(word)); }

constexpr u32 tagged_step(u32 s, u32 word, u8 tag) noexcept {
  return lanes<4>(s ^ bswap32(word)) ^ kSliced[0][tag];
}

#if UPARC_CRC32_CLMUL

#define UPARC_CLMUL_TARGET [[gnu::target("pclmul,ssse3,sse4.1")]]

// The fold starts with four blocks in its accumulators, so a shorter span
// takes the sliced steps whole. That is also where the fold starts to win:
// at four blocks it took 14-26 ns against 28-59 ns for the sliced steps, on
// each of the three entry points (a 4-vCPU x86 VM, g++ 12.2).
constexpr std::size_t kFoldMinBlocks = 4;

// Reflected IEEE fold constants (Gopal et al., Intel 2009): k1/k2 fold a
// block across 64 bytes, k3/k4 across 16, k5 the last 64 bits to 32, then
// the Barrett reduction by the polynomial P and mu = x^64 / P.
constexpr long long kK1 = 0x154442bd4;
constexpr long long kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0;
constexpr long long kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kP = 0x1db710641;
constexpr long long kMu = 0x1f7011641;

/// pshufb masks that lay sixteen words and their tags out as five 16-byte
/// stream blocks. Block j reads the 16 input bytes from byte 12j; the lanes
/// with the high bit set are the tags', which the shuffle zeroes.
struct Expansion {
  alignas(16) u8 shuffle[5][16];
  alignas(16) u8 tag[5][16];
};

constexpr Expansion make_expansion() {
  Expansion t{};
  for (std::size_t s = 0; s < 80; ++s) {
    const std::size_t word = s / 5;
    const std::size_t pos = s % 5;  // 0-3: the word's big-endian bytes, 4: the tag
    t.shuffle[s / 16][s % 16] =
        pos == 4 ? u8{0x80} : static_cast<u8>(4 * word + 3 - pos - 12 * (s / 16));
  }
  for (std::size_t w = 0; w < 16; ++w) t.tag[(5 * w + 4) / 16][(5 * w + 4) % 16] = 0xFF;
  return t;
}

constexpr Expansion kExpansion = make_expansion();

UPARC_CLMUL_TARGET inline __m128i load(const void* p) noexcept {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

/// One block folded across the distance `k` encodes, then `next` added.
UPARC_CLMUL_TARGET inline __m128i fold_block(__m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

/// Folds `blocks` (at least four) 16-byte stream blocks, taken in order
/// from `in.next()`, into `state`: four accumulators 64 bytes apart, then
/// one, then 128 to 64 to 32 bits and the Barrett reduction.
template <typename Blocks>
UPARC_CLMUL_TARGET u32 fold(u32 state, std::size_t blocks, Blocks& in) noexcept {
  __m128i x0 = _mm_xor_si128(in.next(), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = in.next();
  __m128i x2 = in.next();
  __m128i x3 = in.next();
  blocks -= 4;
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; blocks >= 4; blocks -= 4) {
    x0 = fold_block(x0, k12, in.next());
    x1 = fold_block(x1, k12, in.next());
    x2 = fold_block(x2, k12, in.next());
    x3 = fold_block(x3, k12, in.next());
  }
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x0 = fold_block(x0, k34, x1);
  x0 = fold_block(x0, k34, x2);
  x0 = fold_block(x0, k34, x3);
  for (; blocks > 0; --blocks) x0 = fold_block(x0, k34, in.next());

  const __m128i low32 = _mm_setr_epi32(-1, 0, 0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k34, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), _mm_set_epi64x(0, kK5), 0x00));
  const __m128i p_mu = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), p_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), p_mu, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

// The three block sources fold() reads: a byte span as it is, a word span
// byte-swapped into stream order, and a tagged span expanded by kExpansion.
struct ByteBlocks {
  const u8* p;
  UPARC_CLMUL_TARGET __m128i next() noexcept {
    const __m128i v = load(p);
    p += 16;
    return v;
  }
};

struct WordBlocks {
  const u32* p;
  UPARC_CLMUL_TARGET __m128i next() noexcept {
    const __m128i swap = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
    const __m128i v = _mm_shuffle_epi8(load(p), swap);
    p += 4;
    return v;
  }
};

struct TaggedBlocks {
  const u8* group;    // the sixteen words the next block comes from
  std::size_t j = 0;  // which of their five blocks is next
  __m128i tags[5];    // the tag in each block's tag lanes
  UPARC_CLMUL_TARGET TaggedBlocks(const u32* words, u8 tag) noexcept
      : group(reinterpret_cast<const u8*>(words)) {
    const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
    for (std::size_t b = 0; b < 5; ++b) tags[b] = _mm_and_si128(t, load(kExpansion.tag[b]));
  }
  UPARC_CLMUL_TARGET __m128i next() noexcept {
    const __m128i v = _mm_or_si128(
        _mm_shuffle_epi8(load(group + 12 * j), load(kExpansion.shuffle[j])), tags[j]);
    if (++j == 5) {
      j = 0;
      group += 64;
    }
    return v;
  }
};

#endif  // UPARC_CRC32_CLMUL

}  // namespace

namespace crc32_kernels {

u32 sliced_bytes(u32 s, BytesView bytes) noexcept {
  // Four bytes in stream order form the lanes of one little-endian word.
  std::size_t i = 0;
  for (; i + 4 <= bytes.size(); i += 4) {
    s = lanes<3>(s ^ (u32{bytes[i]} | (u32{bytes[i + 1]} << 8) | (u32{bytes[i + 2]} << 16) |
                      (u32{bytes[i + 3]} << 24)));
  }
  for (; i < bytes.size(); ++i) s = byte_step(s, bytes[i]);
  return s;
}

u32 sliced_words(u32 s, WordsView words) noexcept {
  // Sixteen bytes per step: the state folds into the first word's lanes.
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    s = lanes<15>(s ^ bswap32(words[i])) ^ lanes<11>(bswap32(words[i + 1])) ^
        lanes<7>(bswap32(words[i + 2])) ^ lanes<3>(bswap32(words[i + 3]));
  }
  for (; i < words.size(); ++i) s = word_step(s, words[i]);
  return s;
}

u32 sliced_tagged(u32 s, WordsView words, u8 tag) noexcept {
  // Twenty bytes per step: the state folds into the first word's lanes,
  // and the four tag lanes are the same in every step.
  const u32 tags = kSliced[15][tag] ^ kSliced[10][tag] ^ kSliced[5][tag] ^ kSliced[0][tag];
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    s = lanes<19>(s ^ bswap32(words[i])) ^ lanes<14>(bswap32(words[i + 1])) ^
        lanes<9>(bswap32(words[i + 2])) ^ lanes<4>(bswap32(words[i + 3])) ^ tags;
  }
  for (; i < words.size(); ++i) s = tagged_step(s, words[i], tag);
  return s;
}

#if UPARC_CRC32_CLMUL

bool clmul_supported() noexcept {
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_PCLMUL) != 0 &&
           (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  }();
  return supported;
}

u32 clmul_bytes(u32 s, BytesView bytes) noexcept {
  const std::size_t blocks = bytes.size() / 16;
  if (blocks < kFoldMinBlocks) return sliced_bytes(s, bytes);
  ByteBlocks in{bytes.data()};
  return sliced_bytes(fold(s, blocks, in), bytes.subspan(16 * blocks));
}

u32 clmul_words(u32 s, WordsView words) noexcept {
  const std::size_t blocks = words.size() / 4;
  if (blocks < kFoldMinBlocks) return sliced_words(s, words);
  WordBlocks in{words.data()};
  return sliced_words(fold(s, blocks, in), words.subspan(4 * blocks));
}

u32 clmul_tagged(u32 s, WordsView words, u8 tag) noexcept {
  const std::size_t groups = words.size() / 16;  // five blocks each
  if (groups == 0) return sliced_tagged(s, words, tag);
  TaggedBlocks in(words.data(), tag);
  return sliced_tagged(fold(s, 5 * groups, in), words.subspan(16 * groups), tag);
}

#endif  // UPARC_CRC32_CLMUL

}  // namespace crc32_kernels

using namespace crc32_kernels;

void Crc32::update(u8 byte) noexcept { state_ = byte_step(state_, byte); }

void Crc32::update(BytesView bytes) noexcept {
#if UPARC_CRC32_CLMUL
  if (clmul_supported()) {
    state_ = clmul_bytes(state_, bytes);
    return;
  }
#endif
  state_ = sliced_bytes(state_, bytes);
}

void Crc32::update_word(u32 word) noexcept { state_ = word_step(state_, word); }

void Crc32::update_words(WordsView words) noexcept {
#if UPARC_CRC32_CLMUL
  if (clmul_supported()) {
    state_ = clmul_words(state_, words);
    return;
  }
#endif
  state_ = sliced_words(state_, words);
}

void Crc32::update_tagged(u32 word, u8 tag) noexcept { state_ = tagged_step(state_, word, tag); }

void Crc32::update_tagged(WordsView words, u8 tag) noexcept {
#if UPARC_CRC32_CLMUL
  if (clmul_supported()) {
    state_ = clmul_tagged(state_, words, tag);
    return;
  }
#endif
  state_ = sliced_tagged(state_, words, tag);
}

const char* crc32_kernel() noexcept {
#if UPARC_CRC32_CLMUL
  if (clmul_supported()) return "pclmul";
#endif
  return "sliced";
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
