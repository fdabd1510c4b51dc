// Xilinx Virtex-style configuration bitstream format constants (after UG191,
// the Virtex-5 configuration user guide the paper cites).
//
// A partial bitstream body is a stream of 32-bit big-endian words:
//   dummy pad words, bus-width detection, SYNC word, then type-1/type-2
//   packets writing configuration registers; frame data goes to FDRI in
//   multiples of the device's frame size (41 words on Virtex-5).
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace uparc::bits {

inline constexpr u32 kDummyWord = 0xFFFFFFFFu;
inline constexpr u32 kBusWidthSync = 0x000000BBu;
inline constexpr u32 kBusWidthDetect = 0x11220044u;
inline constexpr u32 kSyncWord = 0xAA995566u;
inline constexpr u32 kNoopWord = 0x20000000u;

/// Configuration register addresses (UG191 table 6-5 subset).
enum class ConfigReg : u32 {
  kCrc = 0b00000,
  kFar = 0b00001,
  kFdri = 0b00010,
  kFdro = 0b00011,
  kCmd = 0b00100,
  kCtl0 = 0b00101,
  kMask = 0b00110,
  kStat = 0b00111,
  kLout = 0b01000,
  kCor0 = 0b01001,
  kIdcode = 0b01100,
};

/// CMD register opcodes (UG191 table 6-6 subset).
enum class Command : u32 {
  kNull = 0b00000,
  kWcfg = 0b00001,   // write configuration
  kLfrm = 0b00011,   // last frame
  kRcfg = 0b00100,   // read configuration (readback)
  kRcrc = 0b00111,   // reset CRC
  kDesync = 0b01101, // end of configuration
};

/// Type-1 packet opcodes.
enum class Opcode : u32 { kNop = 0b00, kRead = 0b01, kWrite = 0b10 };

/// Builds a type-1 packet header word.
[[nodiscard]] constexpr u32 type1(Opcode op, ConfigReg reg, u32 word_count) {
  return (0b001u << 29) | (static_cast<u32>(op) << 27) |
         ((static_cast<u32>(reg) & 0x1Fu) << 13) | (word_count & 0x7FFu);
}

/// Builds a type-2 packet header word (word count up to 2^27-1; the opcode
/// and register come from the preceding type-1 header).
[[nodiscard]] constexpr u32 type2(Opcode op, u32 word_count) {
  return (0b010u << 29) | (static_cast<u32>(op) << 27) | (word_count & 0x07FFFFFFu);
}

[[nodiscard]] constexpr u32 packet_type(u32 header) { return header >> 29; }
[[nodiscard]] constexpr Opcode packet_opcode(u32 header) {
  return static_cast<Opcode>((header >> 27) & 0b11u);
}
[[nodiscard]] constexpr ConfigReg packet_reg(u32 header) {
  return static_cast<ConfigReg>((header >> 13) & 0x1Fu);
}
[[nodiscard]] constexpr u32 type1_count(u32 header) { return header & 0x7FFu; }
[[nodiscard]] constexpr u32 type2_count(u32 header) { return header & 0x07FFFFFFu; }

/// Device description: enough geometry to size bitstreams and the config
/// plane. Frame layout follows Virtex-5 (41 words per frame).
struct Device {
  std::string_view name;
  u32 idcode;
  u32 frame_words;       ///< words per configuration frame
  u32 frames;            ///< total configuration frames in the device
  u32 full_bitstream_kb; ///< full-device bitstream size (binary KB)
  /// Virtex generation: 5 or 6 — used by the timing/power models.
  unsigned family;

  friend constexpr bool operator==(const Device&, const Device&) = default;
};

/// The two devices the paper evaluates on.
inline constexpr Device kVirtex5Sx50t{"XC5VSX50T", 0x02E96093u, 41, 15160, 2444, 5};
inline constexpr Device kVirtex6Lx240t{"XC6VLX240T", 0x0424A093u, 81, 28300, 9017, 6};

[[nodiscard]] constexpr u32 frame_bytes(const Device& d) { return d.frame_words * 4; }

/// Looks up a device by IDCODE.
[[nodiscard]] std::optional<Device> device_by_idcode(u32 idcode);

}  // namespace uparc::bits
