#include "mem/ddr2.hpp"

#include <algorithm>
#include <stdexcept>

namespace uparc::mem {

Ddr2::Ddr2(sim::Simulation& sim, std::string name, std::size_t size_bytes, Ddr2Timing timing,
           Frequency rated_fmax)
    : Module(sim, std::move(name)), timing_(timing), rated_fmax_(rated_fmax) {
  if (size_bytes == 0 || size_bytes % 4 != 0) {
    throw std::invalid_argument("Ddr2 size must be a positive multiple of 4 bytes");
  }
  words_.assign(size_bytes / 4, 0);
}

void Ddr2::load(BytesView data, std::size_t word_offset) {
  load_words(bytes_to_words(data), word_offset);
}

void Ddr2::load_words(WordsView data, std::size_t word_offset) {
  if (word_offset + data.size() > words_.size()) {
    throw std::out_of_range("Ddr2 load overflows memory: " + name());
  }
  std::copy(data.begin(), data.end(), words_.begin() + static_cast<std::ptrdiff_t>(word_offset));
}

unsigned Ddr2::read_burst(std::size_t word_addr, std::size_t count, Words& out) {
  if (word_addr + count > words_.size()) {
    throw std::out_of_range("Ddr2 read out of range: " + name());
  }
  unsigned cycles = stall_tap_ ? stall_tap_() : 0;
  std::size_t remaining = count;
  std::size_t addr = word_addr;
  while (remaining > 0) {
    const std::size_t in_burst = std::min<std::size_t>(remaining, timing_.burst_words);
    const i64 row = static_cast<i64>(addr / timing_.row_words);
    cycles += timing_.burst_gap_cycles;
    if (row != open_row_) {
      cycles += timing_.row_miss_cycles;
      open_row_ = row;
      ++row_misses_;
    }
    cycles += static_cast<unsigned>(in_burst);
    for (std::size_t i = 0; i < in_burst; ++i) {
      const u32 value = words_[addr + i];
      out.push_back(read_tap_ ? read_tap_(addr + i, value) : value);
    }
    addr += in_burst;
    remaining -= in_burst;

    cycles_since_refresh_ += in_burst + timing_.burst_gap_cycles;
    if (cycles_since_refresh_ >= timing_.refresh_interval) {
      cycles += timing_.refresh_cycles;
      cycles_since_refresh_ = 0;
      open_row_ = -1;  // refresh closes all rows
    }
  }
  total_cycles_ += cycles;
  return cycles;
}

double Ddr2::sequential_words_per_cycle() const noexcept {
  // Per row of `row_words` words: bursts plus one row miss; amortize refresh.
  const double bursts_per_row =
      static_cast<double>(timing_.row_words) / timing_.burst_words;
  const double row_cycles = bursts_per_row * (timing_.burst_words + timing_.burst_gap_cycles) +
                            timing_.row_miss_cycles;
  const double refresh_share =
      static_cast<double>(timing_.refresh_cycles) *
      (row_cycles / static_cast<double>(timing_.refresh_interval));
  return timing_.row_words / (row_cycles + refresh_share);
}

}  // namespace uparc::mem
