#include "icap/icap.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace uparc::icap {

Icap::Icap(sim::Simulation& sim, std::string name, ConfigPlane& plane, Frequency rated_fmax)
    : Module(sim, std::move(name)), plane_(plane), rated_fmax_(rated_fmax) {
  frame_buf_.reserve(plane_.device().frame_words);
  words_counter_ = &metrics().counter(this->name() + ".words");
  frames_counter_ = &metrics().counter(this->name() + ".frames");
  sim_.topology().register_state(this, this->name());
}

void Icap::open_burst_span() {
  obs::Tracer* tr = tracer();
  if (tr == nullptr || burst_open_) return;
  burst_span_ = tr->begin("icap.burst", "icap");
  burst_open_ = true;
  burst_start_words_ = words_;
  burst_start_frames_ = frames_;
}

void Icap::close_burst_span(const char* outcome) {
  obs::Tracer* tr = tracer();
  if (tr == nullptr || !burst_open_) return;
  burst_open_ = false;
  tr->arg(burst_span_, "outcome", outcome);
  tr->arg(burst_span_, "words", static_cast<double>(words_ - burst_start_words_));
  tr->arg(burst_span_, "frames", static_cast<double>(frames_ - burst_start_frames_));
  if (crc_checked_) tr->arg(burst_span_, "crc_ok", crc_ok_);
  tr->end(burst_span_);
}

void Icap::reset() {
  close_burst_span("reset");  // a reset mid-burst abandons the stream
  state_ = IcapState::kPreSync;
  error_.clear();
  cause_ = ErrorCause::kNone;
  payload_left_ = 0;
  readout_left_ = 0;
  readout_buf_.clear();
  readout_pos_ = 0;
  rcfg_active_ = false;
  reading_fdro_ = false;
  crc_.reset();
  wcfg_active_ = false;
  far_ = bits::FrameAddress{};
  frame_buf_.clear();
  crc_checked_ = false;
  crc_ok_ = false;
  idcode_ = 0;
}

void Icap::fail(std::string why, ErrorCause cause) {
  state_ = IcapState::kError;
  error_ = std::move(why);
  cause_ = cause;
  // Drop all in-flight stream state: a torn FDRI frame must never be
  // committed to the plane nor survive into the next burst, and a stale
  // payload/readout count would skew the per-burst word/frame deltas the
  // obs layer reports. The FAR and write/read mode flags die with the
  // stream too — the next burst re-syncs from scratch.
  frame_buf_.clear();
  payload_left_ = 0;
  readout_left_ = 0;
  readout_buf_.clear();
  readout_pos_ = 0;
  rcfg_active_ = false;
  wcfg_active_ = false;
  reading_fdro_ = false;
  metrics().counter(name() + ".errors").add();
  close_burst_span("error");
}

void Icap::begin_payload(bits::ConfigReg reg, u32 count, IcapState next) {
  current_reg_ = reg;
  payload_left_ = count;
  state_ = count > 0 ? next : IcapState::kAwaitType2;
}

void Icap::begin_readout(u32 count) {
  if (count == 0) {
    state_ = IcapState::kIdle;
    return;
  }
  readout_left_ = count;
  readout_buf_.clear();
  readout_pos_ = 0;
  state_ = IcapState::kReadout;
}

bool Icap::read_word(u32& out) {
  if (state_ != IcapState::kReadout) return false;
  if (readout_pos_ >= readout_buf_.size()) {
    // Fetch the next frame from the plane; unwritten frames read as zeros.
    const Words* frame = plane_.read_frame(far_);
    readout_buf_ = frame != nullptr ? *frame : Words(plane_.device().frame_words, 0);
    readout_pos_ = 0;
    far_ = bits::next_frame_address(far_);
  }
  out = readout_buf_[readout_pos_++];
  ++readback_words_;
  if (--readout_left_ == 0) {
    state_ = IcapState::kIdle;
    readout_buf_.clear();
    readout_pos_ = 0;
  }
  return true;
}

void Icap::finish_packet() { state_ = IcapState::kIdle; }

void Icap::handle_payload_word(u32 word) {
  // CRC comparison happens against the running value *before* the checksum
  // word itself is hashed, mirroring the generator's discipline.
  if (current_reg_ == bits::ConfigReg::kCrc) {
    crc_checked_ = true;
    crc_ok_ = (word == crc_.value());
  }
  crc_.write(current_reg_, word);

  switch (current_reg_) {
    case bits::ConfigReg::kFar:
      far_ = bits::FrameAddress::unpack(word);
      break;
    case bits::ConfigReg::kIdcode:
      idcode_ = word;
      if (word != plane_.device().idcode) {
        fail("IDCODE mismatch: bitstream is for a different device",
             ErrorCause::kIcapDeviceMismatch);
        return;
      }
      break;
    case bits::ConfigReg::kCmd: {
      const auto cmd = static_cast<bits::Command>(word);
      if (cmd == bits::Command::kRcrc) crc_.reset();
      if (cmd == bits::Command::kWcfg) {
        wcfg_active_ = true;
        rcfg_active_ = false;
      }
      if (cmd == bits::Command::kRcfg) {
        rcfg_active_ = true;
        wcfg_active_ = false;
      }
      if (cmd == bits::Command::kDesync) {
        if (!frame_buf_.empty()) {
          fail("DESYNC with a partial frame buffered");
          return;
        }
        state_ = IcapState::kDesynced;
        close_burst_span("desync");
        if (done_cb_) done_cb_();
        return;
      }
      break;
    }
    case bits::ConfigReg::kFdri:
      if (!wcfg_active_) {
        fail("FDRI write without WCFG");
        return;
      }
      frame_buf_.push_back(word);
      if (frame_buf_.size() == plane_.device().frame_words) {
        commit_frame(frame_buf_);
        frame_buf_.clear();
        frames_counter_->add();
      }
      break;
    default:
      break;  // registers we model as write-only scratch
  }

  if (--payload_left_ == 0 && state_ != IcapState::kDesynced && state_ != IcapState::kError) {
    finish_packet();
  }
}

void Icap::commit_frame(WordsView frame) {
  plane_.write_frame(far_, frame);
  far_ = bits::next_frame_address(far_);
  ++frames_;
}

u32 Icap::burst_capacity() const noexcept {
  const bool fdri = (state_ == IcapState::kType1Payload || state_ == IcapState::kType2Payload) &&
                    current_reg_ == bits::ConfigReg::kFdri && wcfg_active_;
  return fdri && !write_tap_ ? payload_left_ - 1 : 0;
}

void Icap::write_words(WordsView words) {
  if (words.size() > burst_capacity()) {
    throw std::logic_error("Icap::write_words: more words than burst_capacity()");
  }
  const auto n = static_cast<u32>(words.size());
  words_ += n;
  words_counter_->add(static_cast<double>(n));
  crc_.write(bits::ConfigReg::kFdri, words);
  payload_left_ -= n;

  const u64 frames_before = frames_;
  const std::size_t fw = plane_.device().frame_words;
  std::size_t i = 0;
  if (!frame_buf_.empty()) {
    // Finish the frame the previous words left half assembled.
    i = std::min(fw - frame_buf_.size(), words.size());
    const WordsView head = words.first(i);
    frame_buf_.insert(frame_buf_.end(), head.begin(), head.end());
    if (frame_buf_.size() == fw) {
      commit_frame(frame_buf_);
      frame_buf_.clear();
    }
  }
  for (; words.size() - i >= fw; i += fw) commit_frame(words.subspan(i, fw));
  const WordsView tail = words.subspan(i);
  frame_buf_.insert(frame_buf_.end(), tail.begin(), tail.end());
  frames_counter_->add(static_cast<double>(frames_ - frames_before));
}

void Icap::write_word(u32 word) {
  if (state_ != IcapState::kDesynced && state_ != IcapState::kError) open_burst_span();
  ++words_;
  words_counter_->add();
  if (write_tap_ && state_ != IcapState::kDesynced && state_ != IcapState::kError) {
    if (write_tap_(word)) {
      fail("injected ICAP abort after " + std::to_string(words_) + " words",
           ErrorCause::kIcapAbort);
      return;
    }
  }
  switch (state_) {
    case IcapState::kPreSync:
      if (word == bits::kSyncWord) state_ = IcapState::kIdle;
      return;

    case IcapState::kIdle: {
      if (word == bits::kDummyWord || word == bits::kNoopWord) return;
      const u32 type = bits::packet_type(word);
      if (type == 1) {
        const auto op = bits::packet_opcode(word);
        if (op == bits::Opcode::kNop) {
          // A NOP's declared payload would be misread as packet headers.
          if (bits::type1_count(word) != 0) fail("NOP packet declares a payload");
          return;
        }
        if (op == bits::Opcode::kRead) {
          if (bits::packet_reg(word) != bits::ConfigReg::kFdro || !rcfg_active_) {
            fail("read packets are only supported for FDRO after CMD RCFG");
            return;
          }
          const u32 count = bits::type1_count(word);
          if (count > 0) {
            begin_readout(count);
          } else {
            reading_fdro_ = true;
            state_ = IcapState::kAwaitType2;
          }
          return;
        }
        begin_payload(bits::packet_reg(word), bits::type1_count(word),
                      IcapState::kType1Payload);
      } else if (type == 2) {
        fail("type-2 packet without a preceding type-1 select");
      } else {
        fail("unknown packet type");
      }
      return;
    }

    case IcapState::kAwaitType2: {
      if (word == bits::kNoopWord) return;
      if (bits::packet_type(word) != 2) {
        fail("expected type-2 packet after zero-count select");
        return;
      }
      if (reading_fdro_) {
        reading_fdro_ = false;
        begin_readout(bits::type2_count(word));
        return;
      }
      payload_left_ = bits::type2_count(word);
      state_ = payload_left_ > 0 ? IcapState::kType2Payload : IcapState::kIdle;
      return;
    }

    case IcapState::kType1Payload:
    case IcapState::kType2Payload:
      handle_payload_word(word);
      return;

    case IcapState::kReadout:
      fail("write during active readout");
      return;

    case IcapState::kDesynced:
      // Trailing pad words after DESYNC are ignored, as in hardware.
      return;

    case IcapState::kError:
      return;
  }
}

}  // namespace uparc::icap
