#include "mem/bram.hpp"

namespace uparc::mem {

Bram::Bram(sim::Simulation& sim, std::string name, std::size_t size_bytes, Frequency rated_fmax)
    : Module(sim, std::move(name)), rated_fmax_(rated_fmax) {
  if (size_bytes == 0 || size_bytes % 4 != 0) {
    throw std::invalid_argument("Bram size must be a positive multiple of 4 bytes");
  }
  words_.assign(size_bytes / 4, 0);
  sim_.topology().register_state(this, this->name());
}

void Bram::write_word(std::size_t word_addr, u32 value) {
  if (word_addr >= words_.size()) throw std::out_of_range("Bram write out of range: " + name());
  words_[word_addr] = value;
  ++writes_;
}

u32 Bram::read_word(std::size_t word_addr) const {
  if (word_addr >= words_.size()) throw std::out_of_range("Bram read out of range: " + name());
  ++reads_;
  const u32 value = words_[word_addr];
  return read_tap_ ? read_tap_(word_addr, value) : value;
}

WordsView Bram::read_words(std::size_t word_addr, std::size_t n) const {
  if (word_addr > words_.size() || n > words_.size() - word_addr) {
    throw std::out_of_range("Bram burst read out of range: " + name());
  }
  if (read_tap_ && n > 0) {
    if (!read_quiet_) {
      throw std::logic_error("Bram burst read past a read tap without a quiet answer: " + name());
    }
    read_quiet_.pass(n);
  }
  reads_ += n;
  return WordsView(words_).subspan(word_addr, n);
}

u64 Bram::quiet_reads(u64 n) const {
  if (!read_tap_ || n == 0) return n;
  return read_quiet_ ? read_quiet_.quiet(n) : 0;
}

void Bram::load(BytesView data, std::size_t word_offset) {
  Words packed = bytes_to_words(data);
  load_words(packed, word_offset);
}

void Bram::load_words(WordsView data, std::size_t word_offset) {
  if (word_offset + data.size() > words_.size()) {
    throw std::out_of_range("Bram load overflows memory: " + name());
  }
  for (std::size_t i = 0; i < data.size(); ++i) words_[word_offset + i] = data[i];
  writes_ += data.size();
}

}  // namespace uparc::mem
