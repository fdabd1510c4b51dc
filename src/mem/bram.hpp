// Dual-port BRAM model.
//
// The paper stores bitstreams in a 256 KB dual-port BRAM: port A is filled by
// the Manager (preloading), port B is burst-read by UReC one 32-bit word per
// cycle. Xilinx block RAM for Virtex-5 is rated at 300 MHz (LogiCORE Block
// Memory Generator v4.3); UReC drives it beyond that rating — the timing
// model in core/timing_model.hpp decides whether a given overclock holds.
#pragma once

#include <functional>
#include <stdexcept>

#include "common/quiet_run.hpp"
#include "sim/module.hpp"

namespace uparc::mem {

class Bram : public sim::Module {
 public:
  Bram(sim::Simulation& sim, std::string name, std::size_t size_bytes,
       Frequency rated_fmax = Frequency::mhz(300));

  [[nodiscard]] std::size_t size_bytes() const noexcept { return words_.size() * 4; }
  [[nodiscard]] std::size_t size_words() const noexcept { return words_.size(); }
  [[nodiscard]] Frequency rated_fmax() const noexcept { return rated_fmax_; }

  /// Port A single-word write (preload side).
  void write_word(std::size_t word_addr, u32 value);
  /// Port B single-word read (UReC side). Reads are combinational in the
  /// model; the caller charges one clock cycle per read.
  [[nodiscard]] u32 read_word(std::size_t word_addr) const;
  /// Port B burst: the `n` words from `word_addr`, counted as `n` reads
  /// (UReC's burst path, one cycle per word). With a read tap armed, `n`
  /// must lie within quiet_reads(): the tap lets them pass in one call.
  [[nodiscard]] WordsView read_words(std::size_t word_addr, std::size_t n) const;
  /// How many of the next `n` reads read_words() may take: n with no read
  /// tap, the tap's quiet run with one, and 0 for a tap without a quiet
  /// answer, which must see every read one by one.
  [[nodiscard]] u64 quiet_reads(u64 n) const;

  /// Bulk preload helper: packs bytes big-endian into words starting at
  /// `word_offset`. Throws on overflow.
  void load(BytesView data, std::size_t word_offset = 0);
  /// Bulk word preload starting at `word_offset`.
  void load_words(WordsView data, std::size_t word_offset = 0);

  /// Fault hook on port B: every read_word() result passes through the tap
  /// (word address, stored value) -> observed value. The stored array is
  /// untouched — the tap models a read-path upset, not a write. `quiet`
  /// is the tap's quiet answer, if it has one (common/quiet_run.hpp).
  using ReadTap = std::function<u32(std::size_t, u32)>;
  void set_read_tap(ReadTap tap, QuietRun quiet = {}) {
    read_tap_ = std::move(tap);
    read_quiet_ = std::move(quiet);
  }

  [[nodiscard]] u64 reads() const noexcept { return reads_; }
  [[nodiscard]] u64 writes() const noexcept { return writes_; }

 private:
  Words words_;
  Frequency rated_fmax_;
  mutable ReadTap read_tap_;
  QuietRun read_quiet_;
  mutable u64 reads_ = 0;
  u64 writes_ = 0;
};

}  // namespace uparc::mem
