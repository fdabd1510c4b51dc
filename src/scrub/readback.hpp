// Configuration readback through the ICAP's FDRO path.
//
// A clocked FSM drives the real port: sync, FAR write, CMD RCFG, a type-1/2
// READ of FDRO, then one word per cycle back out — per contiguous frame run.
// Read words are folded into per-frame CRC32s and compared against a golden
// signature, so corruption detection costs no frame storage (the classic
// readback-CRC scrubber arrangement). A run's words after its first take
// one call (a burst, DESIGN §18), all but the run's last.
#pragma once

#include <functional>
#include <vector>

#include "common/crc32.hpp"
#include "icap/icap.hpp"
#include "scrub/signature.hpp"
#include "sim/clock.hpp"

namespace uparc::scrub {

struct ReadbackReport {
  TimePs duration{};
  u64 words_read = 0;
  u64 command_words = 0;
  bool stalled = false;  // port stopped producing readout data mid-run
  std::vector<bits::FrameAddress> mismatches;  // corrupted or missing frames
  [[nodiscard]] bool clean() const noexcept { return mismatches.empty(); }
};

class Readback : public sim::Module {
 public:
  /// Drives `port` (shared with the reconfiguration controllers) at `clock`.
  Readback(sim::Simulation& sim, std::string name, icap::Icap& port,
           Frequency clock = Frequency::mhz(100));

  /// Reads every frame of `golden` back through the port and compares CRCs;
  /// `done` fires when the readback completes. One verify at a time.
  void verify_region(const GoldenSignature& golden,
                     std::function<void(const ReadbackReport&)> done);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] Frequency clock_frequency() const { return clk_.frequency(); }
  [[nodiscard]] u64 runs() const noexcept { return runs_; }

 private:
  void on_edge();
  /// Folds readout words into the frame CRCs, checking each frame it ends.
  void fold(WordsView words);
  /// Reads the current run's following words in one call, if the clock
  /// lets the edges go (Clock::take_edges).
  void read_burst();
  void finish();

  icap::Icap& port_;
  sim::Clock clk_;

  // One contiguous FAR run to read.
  struct Run {
    bits::FrameAddress start;
    std::vector<bits::FrameAddress> frames;  // in order
  };

  // Consecutive readout-phase cycles with no data word. The real FDRO pipe
  // has a latency of a few cycles; anything past this bound means the read
  // command itself was lost or corrupted (a faulted port can swallow it
  // without raising an error) and waiting longer would hang forever.
  static constexpr u32 kStallCycles = 4096;

  bool busy_ = false;
  u64 runs_ = 0;
  u32 bubble_cycles_ = 0;
  std::vector<Run> plan_;
  std::size_t run_index_ = 0;
  Words command_queue_;
  std::size_t command_pos_ = 0;
  std::size_t frame_in_run_ = 0;
  u32 word_in_frame_ = 0;
  Crc32 frame_crc_;
  TimePs started_at_{};
  ReadbackReport report_;
  const GoldenSignature* golden_ = nullptr;
  std::function<void(const ReadbackReport&)> done_;
};

}  // namespace uparc::scrub
