// Bitstream preloading (Manager task 1, paper §III-A-1).
//
// The Manager reads the .bit file from external storage, parses the
// preamble, and fills the bitstream BRAM through port A: the first 32-bit
// word carries the operation mode and payload length (paper Fig. 3),
// followed by the configuration data (raw body words, or a compressed
// container produced offline on a PC).
//
// A preload normally pays the full external-storage copy loop
// (MicroBlazeCosts::copy_loop_word per word, ~50 MB/s at 100 MHz). The
// bitstream cache (cache/bitstream_cache.hpp) can serve the same payload
// from a hot BRAM slot or the DDR2 staging tier instead; those paths enter
// through preload_cached() with the tier's own (much smaller) cycle charge.
#pragma once

#include "bitstream/generator.hpp"
#include "bitstream/writer.hpp"
#include "manager/microblaze.hpp"
#include "mem/bram.hpp"

namespace uparc::manager {

/// Layout of the BRAM contents (paper Fig. 3).
struct BramLayout {
  static constexpr u32 kCompressedFlag = 1u << 31;
  static constexpr u32 kWordCountMask = 0x00FFFFFFu;

  [[nodiscard]] static constexpr u32 make_header(bool compressed, u32 payload_words) {
    return (compressed ? kCompressedFlag : 0u) | (payload_words & kWordCountMask);
  }
  [[nodiscard]] static constexpr bool is_compressed(u32 header) {
    return (header & kCompressedFlag) != 0;
  }
  [[nodiscard]] static constexpr u32 payload_words(u32 header) {
    return header & kWordCountMask;
  }
};

class Preloader : public sim::Module {
 public:
  Preloader(sim::Simulation& sim, std::string name, MicroBlaze& manager, mem::Bram& bram);

  /// Preloads a parsed body (bits::parse_file reads a .bit file)
  /// uncompressed. Fails if the body (plus header word) does not fit the
  /// BRAM. `done` fires when the copy completes; the Status reports
  /// immediate (pre-copy) errors.
  [[nodiscard]] Status preload_body(WordsView body, std::function<void()> done);

  /// Preloads a compressed container (produced offline). The container is
  /// stored verbatim after the mode word.
  [[nodiscard]] Status preload_compressed(BytesView container, std::function<void()> done);

  /// Cache-served preload: the payload lands in the BRAM window at
  /// `copy_cycles` total manager cost (hot-slot BRAM burst or DDR2 staging
  /// copy) instead of the external-storage copy loop. The truncate tap still
  /// applies — a torn burst from the staging tier is as real as a torn
  /// storage read — but the cache's own copy never goes back to storage.
  [[nodiscard]] Status preload_cached(bool compressed, WordsView payload, u64 copy_cycles,
                                      std::function<void()> done);

  /// Time the last successful preload consumed.
  [[nodiscard]] TimePs last_duration() const noexcept { return last_duration_; }
  [[nodiscard]] u64 preloads() const noexcept { return preloads_; }
  /// Whether the last store copied every payload word (false after a
  /// fault-injected truncation — the BRAM tail is stale).
  [[nodiscard]] bool last_copy_complete() const noexcept { return last_complete_; }

  /// Fault hook: consulted per preload with the full payload word count;
  /// returns how many words actually land in the BRAM. A short count models
  /// a truncated read from storage — the header still advertises the full
  /// length, so UReC streams whatever stale words follow the copied prefix
  /// (the classic torn-file failure).
  using TruncateTap = std::function<std::size_t(std::size_t)>;
  void set_truncate_tap(TruncateTap tap) { truncate_tap_ = std::move(tap); }

 private:
  /// Shared store path. When `cycles_override` is non-negative it replaces
  /// the per-word copy-loop charge (cache-served tiers).
  [[nodiscard]] Status store(bool compressed, WordsView payload, i64 cycles_override,
                             std::function<void()> done);

  MicroBlaze& manager_;
  mem::Bram& bram_;
  TruncateTap truncate_tap_;
  TimePs last_duration_{};
  u64 preloads_ = 0;
  bool last_complete_ = true;
};

}  // namespace uparc::manager
