// The CRC-32 kernels behind Crc32's span entry points, private to the common
// layer: the portable sliced steps and, on x86, a carry-less-multiply fold.
// Crc32 picks one per span (DESIGN.md §18 "The CRC and the plane"); the tests
// call each directly against the bytewise reference.
#pragma once

#include "common/types.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define UPARC_CRC32_CLMUL 1
#else
#define UPARC_CRC32_CLMUL 0
#endif

namespace uparc::crc32_kernels {

// Every kernel takes the running CRC register (Crc32's state, not its
// value) and returns it after the span. Bytes are fed in order, words as
// their big-endian bytes, and a tagged span as each word's bytes followed
// by the byte `tag`.

/// Four bytes per step through the slicing tables, the tail bytewise.
[[nodiscard]] u32 sliced_bytes(u32 state, BytesView bytes) noexcept;
/// Four words per sixteen-lane step, the tail one word per step.
[[nodiscard]] u32 sliced_words(u32 state, WordsView words) noexcept;
/// Four (word, tag) pairs per twenty-lane step, the tail one pair per step.
[[nodiscard]] u32 sliced_tagged(u32 state, WordsView words, u8 tag) noexcept;

#if UPARC_CRC32_CLMUL
/// Whether this CPU has PCLMULQDQ, SSSE3 and SSE4.1 (CPUID, read once).
[[nodiscard]] bool clmul_supported() noexcept;

// The carry-less fold over every whole 16-byte stream block, then the
// sliced steps over the tail. A span too short for four blocks goes to the
// sliced steps whole. Call only when clmul_supported().

/// Each 16-byte block as it is.
[[nodiscard]] u32 clmul_bytes(u32 state, BytesView bytes) noexcept;
/// Each four words, byte-swapped into one block.
[[nodiscard]] u32 clmul_words(u32 state, WordsView words) noexcept;
/// Each sixteen words, expanded with their tags into five blocks.
[[nodiscard]] u32 clmul_tagged(u32 state, WordsView words, u8 tag) noexcept;
#endif

}  // namespace uparc::crc32_kernels
