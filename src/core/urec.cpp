#include "core/urec.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace uparc::core {

UReC::UReC(sim::Simulation& sim, std::string name, sim::Clock& clk2, mem::Bram& bram,
           icap::Icap& port, DecompressorUnit* decomp)
    : Module(sim, std::move(name)), clk_(clk2), bram_(bram), port_(port), decomp_(decomp) {
  clk_.on_rising([this] { on_edge(); });
  bind_clock(clk_);
  for (std::size_t i = 0; i < state_cycle_counters_.size(); ++i) {
    state_cycle_counters_[i] = &metrics().counter(
        this->name() + ".cycles." + to_string(static_cast<UrecState>(i)));
  }
  if (decomp_ != nullptr) {
    // The controller feeds compressed words into the decompressor's input
    // FIFO and drains decoded words from its output FIFO; both crossings
    // are FIFO-synchronized in the topology model.
    sim_.topology().declare_channel({this, &clk_, decomp_, &decomp_->clock(),
                                     decomp_->name() + ".in", true});
    sim_.topology().declare_channel({decomp_, &decomp_->clock(), this, &clk_,
                                     decomp_->name() + ".out", true});
  }
  // Ownership audit: the controller reads/writes state owned elsewhere; the
  // isolation linter checks both ends land on one shard.
  sim_.topology().declare_state_ref(this, &bram_, "bitstream BRAM");
  sim_.topology().declare_state_ref(this, &port_, "ICAP port");
}

void UReC::start(std::function<void()> finish) {
  if (busy()) throw std::logic_error("UReC: Start while busy: " + name());
  finish_cb_ = std::move(finish);
  state_ = UrecState::kReadHeader;
  error_.clear();
  cause_ = ErrorCause::kNone;
  words_to_icap_ = 0;
  if (obs::Tracer* tr = tracer()) {
    stream_span_ = tr->begin("urec.stream", "urec");
    state_span_ = tr->begin("urec.read_header", "urec");
  }
  port_.reset();
  clk_.enable();  // EN: BRAM + ICAP access on
}

void UReC::enter_state(UrecState next) {
  state_ = next;
  if (obs::Tracer* tr = tracer()) {
    tr->end(state_span_);
    state_span_ = tr->begin(std::string("urec.") + to_string(next), "urec");
  }
}

void UReC::finish_now(UrecState final_state, std::string error, ErrorCause cause) {
  state_ = final_state;
  error_ = std::move(error);
  cause_ = cause;
  clk_.disable();  // EN off: BRAM and ICAP gated to save power
  metrics().counter(name() + (final_state == UrecState::kFinished ? ".finished" : ".errors"))
      .add();
  metrics().counter(name() + ".words_to_icap").add(static_cast<double>(words_to_icap_));
  if (obs::Tracer* tr = tracer()) {
    tr->end(state_span_);
    tr->arg(stream_span_, "state", to_string(final_state));
    tr->arg(stream_span_, "words_to_icap", static_cast<double>(words_to_icap_));
    tr->arg(stream_span_, "active_cycles", static_cast<double>(active_cycles_));
    if (!error_.empty()) tr->arg(stream_span_, "error", error_);
    tr->end(stream_span_);
  }
  if (finish_cb_) {
    auto cb = std::move(finish_cb_);
    finish_cb_ = nullptr;
    cb();
  }
}

void UReC::abort(ErrorCause cause, std::string why) {
  if (!busy()) return;
  finish_now(UrecState::kError, std::move(why), cause);
}

void UReC::stream_burst() {
  // Never the payload's last word: it finishes the stream. The ICAP caps
  // the run at its FDRI packet's last word and at its write tap's quiet
  // run; the BRAM caps it at its read tap's.
  std::size_t want =
      std::min<std::size_t>(payload_words_ - next_addr_, port_.burst_capacity());
  want = static_cast<std::size_t>(bram_.quiet_reads(want));
  if (want == 0) return;
  const u64 n = clk_.take_edges(want);
  if (n == 0) return;
  port_.write_words(bram_.read_words(next_addr_, n));
  next_addr_ += n;
  words_to_icap_ += n;
  active_cycles_ += n;
  state_cycle_counters_[static_cast<std::size_t>(UrecState::kStreamDirect)]->add(
      static_cast<double>(n));
}

void UReC::on_edge() {
  ++active_cycles_;
  state_cycle_counters_[static_cast<std::size_t>(state_)]->add();
  if (port_.errored()) {
    finish_now(UrecState::kError, "ICAP error: " + port_.error_message(),
               port_.error_cause());
    return;
  }

  switch (state_) {
    case UrecState::kReadHeader: {
      const u32 header = bram_.read_word(0);
      payload_words_ = manager::BramLayout::payload_words(header);
      next_addr_ = 1;
      if (payload_words_ == 0) {
        finish_now(UrecState::kError, "empty payload in BRAM mode word",
                   ErrorCause::kBadInput);
        return;
      }
      if (1 + payload_words_ > bram_.size_words()) {
        finish_now(UrecState::kError, "mode word length exceeds BRAM",
                   ErrorCause::kBadInput);
        return;
      }
      if (manager::BramLayout::is_compressed(header)) {
        if (decomp_ == nullptr) {
          finish_now(UrecState::kError, "compressed payload but no decompressor present",
                     ErrorCause::kUnsupported);
          return;
        }
        enter_state(UrecState::kStreamDecompress);
      } else {
        enter_state(UrecState::kStreamDirect);
      }
      return;
    }

    case UrecState::kStreamDirect: {
      // One BRAM word to ICAP per cycle — the burst path.
      port_.write_word(bram_.read_word(next_addr_++));
      ++words_to_icap_;
      if (next_addr_ > payload_words_) {
        finish_now(UrecState::kFinished);
      } else {
        stream_burst();
      }
      return;
    }

    case UrecState::kStreamDecompress: {
      if (decomp_->errored()) {
        finish_now(UrecState::kError, "decompressor: " + decomp_->error_message(),
                   ErrorCause::kDecompressor);
        return;
      }
      // Feed side: one compressed word per cycle while the FIFO accepts.
      if (next_addr_ <= payload_words_ && decomp_->can_accept_input()) {
        decomp_->push_input(bram_.read_word(next_addr_++));
      }
      // Drain side: one decompressed word per cycle into ICAP.
      if (decomp_->has_output()) {
        port_.write_word(decomp_->pop_output());
        ++words_to_icap_;
      }
      if (next_addr_ > payload_words_ && decomp_->stream_done()) {
        finish_now(UrecState::kFinished);
      }
      return;
    }

    case UrecState::kIdle:
    case UrecState::kFinished:
    case UrecState::kError:
      return;
  }
}

}  // namespace uparc::core
