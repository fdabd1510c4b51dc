// UReC — the ultra-fast reconfiguration controller (paper §III-B).
//
// A tiny FSM (26 slices, Table II) clocked by CLK_2:
//   1. on Start, enable BRAM access and read the first word to learn the
//      operation mode (compressed?) and payload length (paper Fig. 4);
//   2. burst-read port B one word per cycle;
//   3. uncompressed: the word goes straight to ICAP the same cycle;
//      compressed: words feed the decompressor FIFO while the decompressor's
//      output drains into ICAP (also one word per CLK_2 cycle);
//   4. on the last word, raise Finish and gate BRAM/ICAP off (EN) to save
//      power.
#pragma once

#include <array>

#include "core/decompressor_unit.hpp"
#include "icap/icap.hpp"
#include "manager/preloader.hpp"
#include "mem/bram.hpp"

namespace uparc::core {

enum class UrecState {
  kIdle,
  kReadHeader,
  kStreamDirect,
  kStreamDecompress,
  kFinished,
  kError,
};

[[nodiscard]] constexpr const char* to_string(UrecState s) {
  switch (s) {
    case UrecState::kIdle: return "idle";
    case UrecState::kReadHeader: return "read_header";
    case UrecState::kStreamDirect: return "stream_direct";
    case UrecState::kStreamDecompress: return "stream_decompress";
    case UrecState::kFinished: return "finished";
    case UrecState::kError: return "error";
  }
  return "?";
}

class UReC : public sim::Module {
 public:
  /// `decomp` may be null for an uncompressed-only build (saves the slices).
  UReC(sim::Simulation& sim, std::string name, sim::Clock& clk2, mem::Bram& bram,
       icap::Icap& port, DecompressorUnit* decomp = nullptr);

  /// Start signal. For compressed payloads the decompressor must have been
  /// armed first (UPaRC does this). `finish` is the Finish signal.
  void start(std::function<void()> finish);

  [[nodiscard]] UrecState state() const noexcept { return state_; }
  [[nodiscard]] bool busy() const noexcept {
    return state_ != UrecState::kIdle && state_ != UrecState::kFinished &&
           state_ != UrecState::kError;
  }
  [[nodiscard]] const std::string& error_message() const noexcept { return error_; }
  /// Structured cause when state() == kError (kNone otherwise).
  [[nodiscard]] ErrorCause error_cause() const noexcept { return cause_; }

  /// Forcibly terminates an in-flight reconfiguration (the RecoveryManager's
  /// watchdog drives this when the cycle budget runs out — e.g. the clock
  /// lost its DCM or the decompressor starved). Fires Finish so the control
  /// path unwinds; no-op when not busy.
  void abort(ErrorCause cause, std::string why);
  [[nodiscard]] u64 words_to_icap() const noexcept { return words_to_icap_; }
  [[nodiscard]] u64 active_cycles() const noexcept { return active_cycles_; }

 private:
  void on_edge();
  /// Streams the following edges' words in one call when nothing can
  /// observe them one by one (see DESIGN §18, "Bursts").
  void stream_burst();
  void finish_now(UrecState final_state, std::string error = {},
                  ErrorCause cause = ErrorCause::kNone);
  void enter_state(UrecState next);

  sim::Clock& clk_;
  mem::Bram& bram_;
  icap::Icap& port_;
  DecompressorUnit* decomp_;

  UrecState state_ = UrecState::kIdle;
  std::string error_;
  ErrorCause cause_ = ErrorCause::kNone;
  std::function<void()> finish_cb_;
  std::size_t payload_words_ = 0;
  std::size_t next_addr_ = 0;
  u64 words_to_icap_ = 0;
  u64 active_cycles_ = 0;

  // Observability: the whole Start→Finish window plus one sub-span per FSM
  // state (residency), and cached per-state cycle counters.
  std::size_t stream_span_ = static_cast<std::size_t>(-1);
  std::size_t state_span_ = static_cast<std::size_t>(-1);
  std::array<obs::Counter*, 6> state_cycle_counters_{};
};

}  // namespace uparc::core
