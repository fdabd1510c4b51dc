// ICAP primitive model (ICAP_VIRTEX5, UG191).
//
// The ICAP is a 32-bit synchronous write port into the configuration logic:
// one word per CLK cycle while CE/WRITE are asserted. This model consumes a
// word per `write_word` call (the driving controller calls it once per clock
// edge), runs the streaming packet decoder, commits whole frames to the
// ConfigPlane, checks the running CRC, and raises `done` on DESYNC.
//
// The hardware primitive is *rated* at 100 MHz; the entire point of UPaRC is
// that the silicon tolerates far higher clocks (362.5 MHz on the paper's
// Virtex-5 samples). Whether a given overclock is reliable is decided by
// core/timing_model.hpp, not here.
#pragma once

#include <functional>

#include "bitstream/packet.hpp"
#include "common/quiet_run.hpp"
#include "common/result.hpp"
#include "icap/config_plane.hpp"

namespace uparc::icap {

enum class IcapState {
  kPreSync,      // hunting for the sync word
  kIdle,         // synced, awaiting a packet header
  kType1Payload, // consuming a type-1 payload
  kAwaitType2,   // type-1 select with zero count seen
  kType2Payload, // consuming a type-2 payload
  kReadout,      // streaming FDRO words back out (readback)
  kDesynced,     // configuration finished
  kError,        // malformed stream
};

class Icap : public sim::Module {
 public:
  Icap(sim::Simulation& sim, std::string name, ConfigPlane& plane,
       Frequency rated_fmax = Frequency::mhz(100));

  /// Feeds one configuration word (one clock cycle's worth).
  void write_word(u32 word);
  /// FDRI payload words write_words() may take now: inside an FDRI packet
  /// after CMD WCFG, every word but the packet's last (which ends the
  /// packet), and with a write tap armed only the tap's quiet run (none
  /// for a tap without a quiet answer).
  [[nodiscard]] u32 burst_capacity() const;
  /// Feeds up to burst_capacity() FDRI words (one cycle each) in one call:
  /// one span CRC step, whole frames committed straight from the span, one
  /// pass() of the write tap. The same as write_word() on each word in turn.
  void write_words(WordsView words);

  /// Readback: after a type-1/2 READ of FDRO (preceded by FAR and CMD RCFG
  /// writes) the port enters kReadout and streams one configuration word
  /// per call — unconfigured frames read back as zeros, as on silicon.
  /// Returns false when no readout is active.
  [[nodiscard]] bool read_word(u32& out);
  [[nodiscard]] bool readout_active() const noexcept {
    return state_ == IcapState::kReadout;
  }
  /// Words the active FDRO read has left (0 when no readout is active):
  /// at most this many go to read_words().
  [[nodiscard]] u32 readout_words_left() const noexcept {
    return state_ == IcapState::kReadout ? readout_left_ : 0;
  }
  /// Streams the next `n` readout words (one cycle each) in one call, the
  /// same words n read_word() calls return. `sink` gets them in order as
  /// spans that each lie within one frame: a frame read_word() started
  /// comes from its copy, every later whole frame straight from the plane
  /// (an unwritten frame as zeros).
  void read_words(u32 n, const std::function<void(WordsView)>& sink);
  [[nodiscard]] u64 words_read_back() const noexcept { return readback_words_; }

  [[nodiscard]] IcapState state() const noexcept { return state_; }
  [[nodiscard]] bool done() const noexcept { return state_ == IcapState::kDesynced; }
  [[nodiscard]] bool errored() const noexcept { return state_ == IcapState::kError; }
  [[nodiscard]] const std::string& error_message() const noexcept { return error_; }
  /// Structured cause for the kError state (kNone while not errored), so
  /// callers can distinguish a malformed stream from a device mismatch or
  /// an injected abort instead of pattern-matching the message.
  [[nodiscard]] ErrorCause error_cause() const noexcept { return cause_; }

  /// Fault-injection tap, consulted on every write_word before the FSM
  /// sees the word. The tap may mutate the word; returning true aborts the
  /// port (kIcapAbort) instead of consuming it. `quiet` is the tap's quiet
  /// answer, if it has one (common/quiet_run.hpp).
  using WriteTap = std::function<bool(u32&)>;
  void set_write_tap(WriteTap tap, QuietRun quiet = {}) {
    write_tap_ = std::move(tap);
    write_quiet_ = std::move(quiet);
  }

  [[nodiscard]] u64 words_consumed() const noexcept { return words_; }
  [[nodiscard]] u64 frames_committed() const noexcept { return frames_; }
  /// Words of a partially assembled FDRI frame still buffered (0 outside an
  /// FDRI payload). An abort clears this: a dead stream must never leave a
  /// torn frame that could leak into the next burst's accounting.
  [[nodiscard]] std::size_t in_flight_frame_words() const noexcept {
    return frame_buf_.size();
  }
  /// Payload words the current packet still expects (0 when idle/aborted).
  [[nodiscard]] u32 payload_words_left() const noexcept { return payload_left_; }
  [[nodiscard]] bool crc_checked() const noexcept { return crc_checked_; }
  [[nodiscard]] bool crc_ok() const noexcept { return crc_ok_; }
  [[nodiscard]] u32 idcode_seen() const noexcept { return idcode_; }
  [[nodiscard]] Frequency rated_fmax() const noexcept { return rated_fmax_; }
  [[nodiscard]] const bits::Device& device() const noexcept { return plane_.device(); }

  /// Invoked (at most once per reset) when DESYNC lands.
  void on_done(std::function<void()> cb) { done_cb_ = std::move(cb); }

  /// Returns the primitive to the pre-sync state for the next bitstream.
  void reset();

 private:
  void fail(std::string why, ErrorCause cause = ErrorCause::kIcapProtocol);
  void handle_payload_word(u32 word);
  /// Writes one whole frame at the FAR and advances it.
  void commit_frame(WordsView frame);
  void begin_payload(bits::ConfigReg reg, u32 count, IcapState next);
  void begin_readout(u32 count);
  void finish_packet();

  ConfigPlane& plane_;
  Frequency rated_fmax_;
  IcapState state_ = IcapState::kPreSync;
  std::string error_;
  ErrorCause cause_ = ErrorCause::kNone;
  WriteTap write_tap_;
  QuietRun write_quiet_;

  bits::ConfigReg current_reg_ = bits::ConfigReg::kCrc;
  u32 payload_left_ = 0;
  u32 readout_left_ = 0;
  Words readout_buf_;           // copy of the frame read_word() streams out
  std::size_t readout_pos_ = 0;
  u64 readback_words_ = 0;
  bool rcfg_active_ = false;
  bool reading_fdro_ = false;  // type-1 FDRO read select seen, type-2 pending
  bits::ConfigCrc crc_;
  bool wcfg_active_ = false;
  bits::FrameAddress far_{};
  Words frame_buf_;

  u64 words_ = 0;
  u64 frames_ = 0;
  bool crc_checked_ = false;
  bool crc_ok_ = false;
  u32 idcode_ = 0;
  std::function<void()> done_cb_;

  // Observability: one span per write burst (first word → DESYNC/error/
  // reset) plus cached hot-path counters (one add per word/frame).
  void open_burst_span();
  void close_burst_span(const char* outcome);
  std::size_t burst_span_ = static_cast<std::size_t>(-1);
  bool burst_open_ = false;
  u64 burst_start_words_ = 0;
  u64 burst_start_frames_ = 0;
  obs::Counter* words_counter_ = nullptr;
  obs::Counter* frames_counter_ = nullptr;
};

}  // namespace uparc::icap
