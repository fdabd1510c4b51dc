// Unit tests for the support library: units, results, CRC, bit I/O, PRNG.
#include <gtest/gtest.h>

#include <array>

#include "bitstream/packet.hpp"
#include "common/bitio.hpp"
#include "common/crc32.hpp"
#include "common/crc32_kernels.hpp"
#include "common/prng.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;

TEST(Units, FrequencyPeriodRoundTrip) {
  EXPECT_EQ(Frequency::mhz(100).period().ps(), 10'000u);
  EXPECT_EQ(Frequency::mhz(362.5).period().ps(), 2759u);  // 2758.6 ps rounded
  EXPECT_EQ(Frequency::mhz(50).period().ps(), 20'000u);
}

TEST(Units, FrequencyZeroPeriodThrows) {
  EXPECT_THROW((void)Frequency().period(), std::domain_error);
}

TEST(Units, TimeArithmetic) {
  TimePs a = TimePs::from_us(1.5);
  TimePs b = TimePs::from_ns(500);
  EXPECT_EQ((a + b).ps(), 2'000'000u);
  EXPECT_EQ((a - b).ps(), 1'000'000u);
  EXPECT_DOUBLE_EQ((a + b).us(), 2.0);
  EXPECT_LT(b, a);
}

TEST(Units, TimeLiteralsAndScaling) {
  EXPECT_EQ((TimePs::from_ns(10) * 3).ps(), 30'000u);
  EXPECT_EQ(64_KiB, 65'536u);
  EXPECT_EQ(2_MiB, 2'097'152u);
}

TEST(Units, BandwidthFromBytesOverTime) {
  // 400 MB in one second.
  Bandwidth bw = Bandwidth::from_bytes_over(400'000'000, TimePs::from_seconds(1.0));
  EXPECT_NEAR(bw.mb_per_sec(), 400.0, 1e-9);
  EXPECT_THROW((void)Bandwidth::from_bytes_over(1, TimePs(0)), std::domain_error);
}

TEST(Units, TheoreticalIcapBandwidthAtPaperFrequencies) {
  // Paper: 4 bytes/cycle -> 1.45 GB/s at 362.5 MHz, 400 MB/s at 100 MHz.
  const double bytes_per_cycle = 4.0;
  EXPECT_NEAR(Frequency::mhz(362.5).in_hz() * bytes_per_cycle * 1e-9, 1.45, 1e-12);
  EXPECT_NEAR(Frequency::mhz(100).in_hz() * bytes_per_cycle * 1e-6, 400.0, 1e-9);
}

TEST(Units, ToStringFormats) {
  EXPECT_EQ(to_string(Frequency::mhz(362.5)), "362.5 MHz");
  EXPECT_EQ(to_string(TimePs::from_us(550)), "550 us");
  EXPECT_EQ(to_string(TimePs::from_ns(5)), "5 ns");
  EXPECT_EQ(to_string(TimePs::from_ms(1.1)), "1.1 ms");
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> bad = make_error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_THROW((void)bad.value(), std::runtime_error);
  EXPECT_THROW((void)ok.error(), std::runtime_error);
}

TEST(Result, StatusSuccessAndFailure) {
  Status s = Status::success();
  EXPECT_TRUE(s.ok());
  Status f = make_error("broken");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "broken");
}

TEST(Crc32, KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  Bytes b(s, s + 9);
  EXPECT_EQ(crc32(b), 0xCBF43926u);
  EXPECT_EQ(crc32(BytesView{}), 0x00000000u);
}

TEST(Crc32, WordOrderMatchesByteOrder) {
  Words w = {0x01020304u, 0xAABBCCDDu};
  Bytes b = words_to_bytes(w);
  EXPECT_EQ(crc32_words(w), crc32(b));
}

TEST(Crc32, StreamingEqualsOneShot) {
  Prng rng(7);
  Bytes data(1000);
  for (auto& x : data) x = rng.byte();
  Crc32 c;
  c.update(BytesView(data).subspan(0, 400));
  c.update(BytesView(data).subspan(400));
  EXPECT_EQ(c.value(), crc32(data));
}

TEST(Crc32, SlicedBytesMatchBytewiseReference) {
  // Every length 0-97 (whole four-byte steps plus every tail), starting at
  // each of the four byte alignments, from a fresh and from a used state.
  Prng rng(97);
  Bytes data(97 + 3);
  for (auto& x : data) x = rng.byte();
  for (std::size_t align = 0; align < 4; ++align) {
    for (std::size_t len = 0; len + align <= data.size() && len <= 97; ++len) {
      const BytesView bytes = BytesView(data).subspan(align, len);
      for (const u8 lead : {u8{0}, u8{0xA5}}) {
        Crc32 sliced;
        Crc32 ref;
        sliced.update(lead);
        ref.update(lead);
        sliced.update(bytes);
        for (u8 b : bytes) ref.update(b);
        ASSERT_EQ(sliced.value(), ref.value()) << "align " << align << " len " << len;
      }
    }
  }
}

/// Reference CRC of a word stream: four bytewise table steps per word.
u32 bytewise_crc32_words(WordsView words) {
  Crc32 c;
  for (u32 w : words) {
    c.update(static_cast<u8>(w >> 24));
    c.update(static_cast<u8>(w >> 16));
    c.update(static_cast<u8>(w >> 8));
    c.update(static_cast<u8>(w));
  }
  return c.value();
}

TEST(Crc32, SlicedWordsMatchBytewiseReference) {
  Prng rng(41);
  for (std::size_t len = 0; len <= 64; ++len) {
    for (int rep = 0; rep < 8; ++rep) {
      Words w(len);
      for (auto& x : w) x = static_cast<u32>(rng.next());
      ASSERT_EQ(crc32_words(w), bytewise_crc32_words(w)) << "len " << len;
    }
  }
  // Edge words exercise every byte lane of the sliced tables.
  const Words edges = {0u, 0xFFFFFFFFu, 0x80000000u, 0x00000001u, 0xAA995566u};
  EXPECT_EQ(crc32_words(edges), bytewise_crc32_words(edges));
}

TEST(Crc32, UpdateWordsEqualsUpdateWord) {
  Prng rng(5);
  Words w(77);
  for (auto& x : w) x = static_cast<u32>(rng.next());
  Crc32 span;
  Crc32 ref;
  span.update_words(WordsView(w).first(30));
  span.update_words(WordsView(w).subspan(30));
  for (u32 x : w) ref.update_word(x);
  EXPECT_EQ(span.value(), ref.value());
  EXPECT_EQ(span.value(), bytewise_crc32_words(w));
}

TEST(Crc32, ConfigCrcRegisterSequencesMatchBytewiseReference) {
  // bits::ConfigCrc folds each register write as the data word then the
  // 5-bit register address, one write at a time or a run as one span. For
  // every register code and span lengths 0-97 (so the four-word step's
  // tail runs at every length mod 4), from a random start state, both
  // equal the bytewise reference, and so does Crc32::update_tagged.
  Prng rng(47);
  for (u32 code = 0; code < 32; ++code) {
    const auto reg = static_cast<bits::ConfigReg>(code);
    for (std::size_t len = 0; len <= 97; ++len) {
      bits::ConfigCrc fused;
      bits::ConfigCrc span;
      Crc32 tagged;
      Crc32 ref;
      const auto feed_ref = [&](u32 word, u8 tag) {
        for (int shift = 24; shift >= 0; shift -= 8) ref.update(static_cast<u8>(word >> shift));
        ref.update(tag);
      };
      // A random run of writes to random registers sets the start state.
      const std::size_t prefix = rng.below(4);
      for (std::size_t i = 0; i < prefix; ++i) {
        const u32 prefix_code = static_cast<u32>(rng.below(32));
        const u32 word = static_cast<u32>(rng.next());
        fused.write(static_cast<bits::ConfigReg>(prefix_code), word);
        span.write(static_cast<bits::ConfigReg>(prefix_code), word);
        tagged.update_tagged(word, static_cast<u8>(prefix_code));
        feed_ref(word, static_cast<u8>(prefix_code));
      }
      Words words(len);
      for (auto& w : words) w = static_cast<u32>(rng.next());
      for (u32 w : words) {
        fused.write(reg, w);
        feed_ref(w, static_cast<u8>(code));
      }
      span.write(reg, words);
      tagged.update_tagged(words, static_cast<u8>(code));
      ASSERT_EQ(fused.value(), ref.value()) << "register " << code << ", " << len << " words";
      ASSERT_EQ(span.value(), ref.value()) << "register " << code << ", " << len << " words";
      ASSERT_EQ(tagged.value(), ref.value()) << "register " << code << ", " << len << " words";
    }
  }
}

// Each span kernel, called directly, against the bytewise update(u8)
// reference. The dispatcher sends a span to one kernel by CPU and length,
// so these reach the sliced steps and the carry-less fold at every length,
// whatever this host selects.

using TaggedKernel = u32 (*)(u32, WordsView, u8) noexcept;
using WordsKernel = u32 (*)(u32, WordsView) noexcept;
using BytesKernel = u32 (*)(u32, BytesView) noexcept;

/// A reference fed a random prefix, so the kernels start from a random
/// state (`~value()`, as the kernels take the register, not the value).
Crc32 random_start(Prng& rng) {
  Crc32 c;
  for (std::size_t n = 1 + rng.below(8); n > 0; --n) c.update(rng.byte());
  return c;
}

void feed_bytewise(Crc32& ref, u32 word) {
  for (int shift = 24; shift >= 0; shift -= 8) ref.update(static_cast<u8>(word >> shift));
}

/// Spans of every length 0-300 words, starting at each word of a 16-byte
/// line: past the fold's four-block minimum, its 64-byte steps and every
/// tail length, with the buffer's alignment seen from each word.
constexpr std::size_t kMaxSpanWords = 300;
struct alignas(16) SpanBuffer {
  std::array<u32, kMaxSpanWords + 4> words;
};

SpanBuffer random_span_buffer(Prng& rng) {
  SpanBuffer b;
  for (u32& w : b.words) w = static_cast<u32>(rng.next());
  return b;
}

/// The 63,253-word body of a 247 KB image, one span.
Words full_body(Prng& rng) {
  Words w(63'253);
  for (u32& x : w) x = static_cast<u32>(rng.next());
  return w;
}

void expect_tagged_kernel_matches_bytewise(TaggedKernel kernel) {
  Prng rng(2012);
  const SpanBuffer buf = random_span_buffer(rng);
  for (u32 code = 0; code < 32; ++code) {
    const u8 tag = static_cast<u8>(code);
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const Crc32 start = random_start(rng);
      Crc32 ref = start;
      for (std::size_t len = 0; len <= kMaxSpanWords; ++len) {
        const WordsView span = WordsView(buf.words).subspan(offset, len);
        ASSERT_EQ(~kernel(~start.value(), span, tag), ref.value())
            << "register " << code << ", offset " << offset << ", " << len << " words";
        feed_bytewise(ref, buf.words[offset + len]);
        ref.update(tag);
      }
    }
  }
  const Words body = full_body(rng);
  const Crc32 start = random_start(rng);
  Crc32 ref = start;
  for (u32 w : body) {
    feed_bytewise(ref, w);
    ref.update(u8{0x02});  // FDRI
  }
  EXPECT_EQ(~kernel(~start.value(), body, u8{0x02}), ref.value());
}

void expect_words_kernel_matches_bytewise(WordsKernel kernel) {
  Prng rng(1433);
  const SpanBuffer buf = random_span_buffer(rng);
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const Crc32 start = random_start(rng);
      Crc32 ref = start;
      for (std::size_t len = 0; len <= kMaxSpanWords; ++len) {
        const WordsView span = WordsView(buf.words).subspan(offset, len);
        ASSERT_EQ(~kernel(~start.value(), span), ref.value())
            << "offset " << offset << ", " << len << " words";
        feed_bytewise(ref, buf.words[offset + len]);
      }
    }
  }
  const Words body = full_body(rng);
  const Crc32 start = random_start(rng);
  Crc32 ref = start;
  for (u32 w : body) feed_bytewise(ref, w);
  EXPECT_EQ(~kernel(~start.value(), body), ref.value());
}

void expect_bytes_kernel_matches_bytewise(BytesKernel kernel) {
  // Every length 0-320 bytes from each of the 16 byte offsets of a line.
  constexpr std::size_t kMaxBytes = 320;
  Prng rng(247);
  struct alignas(16) {
    std::array<u8, kMaxBytes + 16> bytes;
  } buf;
  for (u8& b : buf.bytes) b = rng.byte();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const Crc32 start = random_start(rng);
    Crc32 ref = start;
    for (std::size_t len = 0; len <= kMaxBytes; ++len) {
      const BytesView span = BytesView(buf.bytes).subspan(offset, len);
      ASSERT_EQ(~kernel(~start.value(), span), ref.value())
          << "offset " << offset << ", " << len << " bytes";
      ref.update(buf.bytes[offset + len]);
    }
  }
}

TEST(Crc32Kernels, SlicedTaggedMatchesBytewiseReference) {
  expect_tagged_kernel_matches_bytewise(crc32_kernels::sliced_tagged);
}

TEST(Crc32Kernels, SlicedWordsMatchBytewiseReference) {
  expect_words_kernel_matches_bytewise(crc32_kernels::sliced_words);
}

TEST(Crc32Kernels, SlicedBytesMatchBytewiseReference) {
  expect_bytes_kernel_matches_bytewise(crc32_kernels::sliced_bytes);
}

#if UPARC_CRC32_CLMUL
constexpr const char* kNoClmul =
    "this CPU lacks PCLMULQDQ, SSSE3 or SSE4.1, so the carry-less kernel cannot run";

TEST(Crc32Kernels, ClmulTaggedMatchesBytewiseReference) {
  if (!crc32_kernels::clmul_supported()) GTEST_SKIP() << kNoClmul;
  expect_tagged_kernel_matches_bytewise(crc32_kernels::clmul_tagged);
}

TEST(Crc32Kernels, ClmulWordsMatchBytewiseReference) {
  if (!crc32_kernels::clmul_supported()) GTEST_SKIP() << kNoClmul;
  expect_words_kernel_matches_bytewise(crc32_kernels::clmul_words);
}

TEST(Crc32Kernels, ClmulBytesMatchBytewiseReference) {
  if (!crc32_kernels::clmul_supported()) GTEST_SKIP() << kNoClmul;
  expect_bytes_kernel_matches_bytewise(crc32_kernels::clmul_bytes);
}
#else
TEST(Crc32Kernels, ClmulKernelsMatchBytewiseReference) {
  GTEST_SKIP() << "the carry-less kernel is built for x86 only";
}
#endif

TEST(Crc32Kernels, KernelQueryNamesTheDispatchedKernel) {
#if UPARC_CRC32_CLMUL
  EXPECT_STREQ(crc32_kernel(), crc32_kernels::clmul_supported() ? "pclmul" : "sliced");
#else
  EXPECT_STREQ(crc32_kernel(), "sliced");
#endif
}

TEST(Types, WordPackingRoundTrip) {
  Bytes b = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04};
  Words w = bytes_to_words(b);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0xDEADBEEFu);
  EXPECT_EQ(w[1], 0x01020304u);
  EXPECT_EQ(words_to_bytes(w), b);
}

TEST(Types, WordPackingPadsTail) {
  Bytes b = {0xAA, 0xBB, 0xCC, 0xDD, 0xEE};
  Words w = bytes_to_words(b);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1], 0xEE000000u);
}

TEST(BitIo, RoundTripMixedWidths) {
  BitWriter bw;
  bw.put(0b101, 3);
  bw.put(0xDEADu, 16);
  bw.put_bit(true);
  bw.put(0x7, 3);
  bw.put(0x12345678u, 32);
  Bytes data = bw.finish();

  BitReader br(data);
  EXPECT_EQ(br.get(3), 0b101u);
  EXPECT_EQ(br.get(16), 0xDEADu);
  EXPECT_TRUE(br.get_bit());
  EXPECT_EQ(br.get(3), 0x7u);
  EXPECT_EQ(br.get(32), 0x12345678u);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter bw;
  bw.put(0xF, 4);
  Bytes data = bw.finish();  // one byte after padding
  BitReader br(data);
  EXPECT_EQ(br.get(8), 0xF0u);
  EXPECT_THROW((void)br.get(1), std::out_of_range);
}

TEST(BitIo, BitCountTracksWrites) {
  BitWriter bw;
  bw.put(1, 1);
  bw.put(0, 13);
  EXPECT_EQ(bw.bit_count(), 14u);
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Prng, RangeBounds) {
  Prng rng(5);
  for (int i = 0; i < 1000; ++i) {
    u64 v = rng.range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Prng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace uparc
