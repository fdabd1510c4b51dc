#include "controllers/bram_hwicap.hpp"

namespace uparc::ctrl {

BramHwicap::BramHwicap(sim::Simulation& sim, std::string name, icap::Icap& port,
                       BramHwicapParams params, power::Rail* rail)
    : ReconfigController(sim, std::move(name)),
      params_(params),
      port_(port),
      clock_(sim, this->name() + ".clk", params.clock),
      bram_(sim, this->name() + ".bram", params.bram_bytes),
      rail_(rail) {
  if (rail_ != nullptr) {
    // Per-MHz draw comparable to the UPaRC datapath: same BRAM+ICAP path
    // plus the (large) Xilinx DMA engine.
    dma_power_ = std::make_unique<power::BlockPower>(
        *rail_, this->name() + ".dma", clock_,
        [](Frequency f) { return 1.9 * f.in_mhz(); });
  }
  clock_.on_rising([this] { on_edge(); });
}

Status BramHwicap::stage(const bits::PartialBitstream& bs) {
  if (bs.body.size() * 4 > bram_.size_bytes()) {
    return make_error("bitstream exceeds BRAM_HWICAP's on-chip storage (" +
                      std::to_string(bs.body.size() * 4) + " > " +
                      std::to_string(bram_.size_bytes()) + " bytes)",
                      ErrorCause::kCapacity);
  }
  bram_.load_words(bs.body, 0);
  total_words_ = bs.body.size();
  return Status::success();
}

void BramHwicap::finish(bool success, std::string error, ErrorCause cause) {
  clock_.disable();
  if (dma_power_) dma_power_->set_active(false);
  ReconfigResult r;
  r.success = success;
  r.error = std::move(error);
  r.cause = success ? ErrorCause::kNone
                    : (cause == ErrorCause::kNone ? ErrorCause::kUnknown : cause);
  r.start = start_;
  r.end = sim_.now();
  r.payload_bytes = total_words_ * 4;
  if (rail_ != nullptr) r.energy_uj = rail_->energy_uj(r.start, r.end);
  auto done = std::move(done_);
  done_ = nullptr;
  done(r);
}

void BramHwicap::on_edge() {
  if (port_.errored()) {
    finish(false, "ICAP error: " + port_.error_message(), port_.error_cause());
    return;
  }
  if (stall_cycles_ > 0) {
    --stall_cycles_;
    return;
  }
  if (next_word_ >= total_words_) {
    const StreamVerdict v = end_of_stream_verdict(port_);
    finish(v.success, v.error, v.cause);
    return;
  }
  port_.write_word(bram_.read_word(next_word_++));
  if (++words_in_burst_ == params_.burst_words) {
    words_in_burst_ = 0;
    stall_cycles_ = params_.inter_burst_stall;
  }
}

void BramHwicap::reconfigure(ReconfigCallback done) {
  if (total_words_ == 0) {
    ReconfigResult r;
    r.error = "BRAM_HWICAP: reconfigure without stage";
    r.cause = ErrorCause::kNotStaged;
    done(r);
    return;
  }
  done_ = std::move(done);
  start_ = sim_.now();
  next_word_ = 0;
  words_in_burst_ = 0;
  stall_cycles_ = params_.dma_setup_cycles;
  port_.reset();
  if (dma_power_) dma_power_->set_active(true);
  clock_.enable();
}

}  // namespace uparc::ctrl
