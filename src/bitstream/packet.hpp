// Packet-level bitstream body construction and the running configuration CRC.
#pragma once

#include <vector>

#include "bitstream/format.hpp"
#include "bitstream/frame.hpp"
#include "common/crc32.hpp"

namespace uparc::bits {

/// Running CRC over register writes, as checked by the ICAP model. Each data
/// word is hashed, then its 5-bit destination register address, in one
/// fused step (Crc32::update_tagged).
class ConfigCrc {
 public:
  void write(ConfigReg reg, u32 word) noexcept { crc_.update_tagged(word, address(reg)); }
  /// A run of writes to one register; equals write(reg, w) for each word.
  void write(ConfigReg reg, WordsView words) noexcept { crc_.update_tagged(words, address(reg)); }
  [[nodiscard]] u32 value() const noexcept { return crc_.value(); }
  void reset() noexcept { crc_.reset(); }

 private:
  [[nodiscard]] static constexpr u8 address(ConfigReg reg) noexcept {
    return static_cast<u8>(static_cast<u32>(reg) & 0x1Fu);
  }

  Crc32 crc_;
};

/// Builds a configuration word stream (bitstream body) packet by packet.
class PacketWriter {
 public:
  /// Standard body prologue: pad, bus-width detect, sync.
  void prologue(unsigned dummy_words = 8);
  void dummy(unsigned count = 1);
  void noop(unsigned count = 1);
  void sync();
  /// Type-1 single-word register write.
  void write_reg(ConfigReg reg, u32 value);
  /// CMD register write.
  void command(Command cmd) { write_reg(ConfigReg::kCmd, static_cast<u32>(cmd)); }
  /// FDRI frame-data write: type-1 header with zero count followed by a
  /// type-2 header carrying the payload length.
  void write_fdri(WordsView payload);
  /// CRC register write with the given checksum.
  void write_crc(u32 crc);

  [[nodiscard]] const Words& words() const noexcept { return words_; }
  [[nodiscard]] Words take() { return std::move(words_); }

 private:
  Words words_;
};

}  // namespace uparc::bits
