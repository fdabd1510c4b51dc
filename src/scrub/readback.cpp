#include "scrub/readback.hpp"

#include <algorithm>
#include <stdexcept>

namespace uparc::scrub {

Readback::Readback(sim::Simulation& sim, std::string name, icap::Icap& port, Frequency clock)
    : Module(sim, std::move(name)), port_(port), clk_(sim, this->name() + ".clk", clock) {
  clk_.on_rising([this] { on_edge(); });
}

void Readback::verify_region(const GoldenSignature& golden,
                             std::function<void(const ReadbackReport&)> done) {
  if (busy_) throw std::logic_error("Readback: verify_region while busy: " + name());
  busy_ = true;
  golden_ = &golden;
  done_ = std::move(done);
  report_ = ReadbackReport{};
  started_at_ = sim_.now();

  // Group the golden addresses into contiguous FAR runs (the FDRO read
  // auto-increments exactly like FDRI writes).
  plan_.clear();
  for (const auto& addr : golden.addresses()) {
    if (!plan_.empty()) {
      Run& last = plan_.back();
      if (bits::next_frame_address(last.frames.back()) == addr) {
        last.frames.push_back(addr);
        continue;
      }
    }
    plan_.push_back(Run{addr, {addr}});
  }
  run_index_ = 0;
  command_pos_ = 0;
  frame_in_run_ = 0;
  word_in_frame_ = 0;
  bubble_cycles_ = 0;
  frame_crc_.reset();

  // The port may be desynced from a previous configuration: start clean.
  port_.reset();

  if (plan_.empty()) {
    finish();
    return;
  }

  // Build the first run's command sequence.
  const Run& run = plan_[0];
  bits::PacketWriter pw;
  pw.sync();
  pw.write_reg(bits::ConfigReg::kFar, run.start.pack());
  pw.command(bits::Command::kRcfg);
  command_queue_ = pw.take();
  const u32 words =
      static_cast<u32>(run.frames.size()) * port_.device().frame_words;
  command_queue_.push_back(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 0));
  command_queue_.push_back(bits::type2(bits::Opcode::kRead, words));

  clk_.enable();
}

void Readback::finish() {
  clk_.disable();
  busy_ = false;
  ++runs_;
  report_.duration = sim_.now() - started_at_;
  auto done = std::move(done_);
  done_ = nullptr;
  metrics().counter(name() + ".scans").add();
  metrics().counter(name() + ".words_read").add(static_cast<double>(report_.words_read));
  if (!report_.mismatches.empty()) {
    metrics().counter(name() + ".mismatched_frames")
        .add(static_cast<double>(report_.mismatches.size()));
  }
  // Report delivery is event-ordered (never synchronous from the edge).
  sim_.schedule_in(TimePs(0), [report = report_, done = std::move(done)]() mutable {
    if (done) done(report);
  });
}

void Readback::on_edge() {
  if (port_.errored()) {
    // A readback command error corrupts the whole pass; flag every frame of
    // the current run as suspect so the scrubber repairs conservatively.
    const Run& run = plan_[run_index_];
    report_.mismatches.insert(
        report_.mismatches.end(),
        run.frames.begin() + static_cast<std::ptrdiff_t>(frame_in_run_), run.frames.end());
    finish();
    return;
  }

  // Command phase: one command word per cycle.
  if (command_pos_ < command_queue_.size()) {
    port_.write_word(command_queue_[command_pos_++]);
    ++report_.command_words;
    bubble_cycles_ = 0;
    return;
  }

  // Readout phase: one data word per cycle.
  u32 word = 0;
  if (!port_.read_word(word)) {
    // Command latency bubble — but only up to a point. A corrupted read
    // command can leave the port idle without an error flag; treat a stall
    // past the pipe latency like an errored pass: every unread frame of the
    // run is suspect, and the verify terminates instead of clocking forever.
    if (++bubble_cycles_ >= kStallCycles) {
      report_.stalled = true;
      metrics().counter(name() + ".stalls").add();
      const Run& run = plan_[run_index_];
      report_.mismatches.insert(
          report_.mismatches.end(),
          run.frames.begin() + static_cast<std::ptrdiff_t>(frame_in_run_),
          run.frames.end());
      finish();
    }
    return;
  }
  bubble_cycles_ = 0;
  ++report_.words_read;
  fold(WordsView(&word, 1));

  const Run& run = plan_[run_index_];
  if (frame_in_run_ < run.frames.size()) {
    read_burst();
    return;
  }
  // Run complete: advance to the next run or finish.
  ++run_index_;
  frame_in_run_ = 0;
  if (run_index_ >= plan_.size()) {
    finish();
    return;
  }
  const Run& next = plan_[run_index_];
  bits::PacketWriter pw;
  pw.write_reg(bits::ConfigReg::kFar, next.start.pack());
  pw.command(bits::Command::kRcfg);
  command_queue_ = pw.take();
  const u32 words = static_cast<u32>(next.frames.size()) * port_.device().frame_words;
  command_queue_.push_back(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kFdro, 0));
  command_queue_.push_back(bits::type2(bits::Opcode::kRead, words));
  command_pos_ = 0;
}

void Readback::fold(WordsView words) {
  const u32 fw = port_.device().frame_words;
  const Run& run = plan_[run_index_];
  while (!words.empty()) {
    const std::size_t k = std::min<std::size_t>(words.size(), fw - word_in_frame_);
    frame_crc_.update_words(words.first(k));
    words = words.subspan(k);
    word_in_frame_ += static_cast<u32>(k);
    if (word_in_frame_ < fw) return;
    const bits::FrameAddress& addr = run.frames[frame_in_run_];
    const u32* want = golden_->expected_crc(addr);
    if (want == nullptr || frame_crc_.value() != *want) {
      report_.mismatches.push_back(addr);
    }
    frame_crc_.reset();
    word_in_frame_ = 0;
    ++frame_in_run_;
  }
}

void Readback::read_burst() {
  // All of the run but its last word, which ends the run, and never past
  // what the port's read has left: a corrupted read count stalls or fails
  // at the same edge as word by word.
  const u64 fw = port_.device().frame_words;
  const u64 left = plan_[run_index_].frames.size() * fw - (frame_in_run_ * fw + word_in_frame_);
  const u64 want = std::min<u64>(left - 1, port_.readout_words_left());
  if (want == 0) return;
  const u64 n = clk_.take_edges(want);
  if (n == 0) return;
  port_.read_words(static_cast<u32>(n), [this](WordsView words) { fold(words); });
  report_.words_read += n;
}

}  // namespace uparc::scrub
