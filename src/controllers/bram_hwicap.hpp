// BRAM_HWICAP model (Liu et al., FPL'09): the Xilinx DMA engine streams the
// bitstream from BRAM to ICAP. Reaches near-theoretical throughput at its
// clock (371 MB/s measured at 100 MHz) but the DMA+PLB fabric limits the
// clock to ~120 MHz, and capacity is bounded by on-chip BRAM.
#pragma once

#include <memory>
#include "controllers/controller.hpp"
#include "mem/bram.hpp"
#include "power/model.hpp"
#include "sim/clock.hpp"

namespace uparc::ctrl {

struct BramHwicapParams {
  Frequency clock = Frequency::mhz(100);
  Frequency f_max = Frequency::mhz(120);
  std::size_t bram_bytes = 256 * 1024;
  unsigned dma_setup_cycles = 60;   ///< descriptor setup per transfer
  unsigned burst_words = 16;        ///< DMA burst size
  unsigned inter_burst_stall = 1;   ///< PLB re-arbitration between bursts
};

class BramHwicap final : public ReconfigController {
 public:
  BramHwicap(sim::Simulation& sim, std::string name, icap::Icap& port,
             BramHwicapParams params = {}, power::Rail* rail = nullptr);

  [[nodiscard]] std::string_view kind() const override { return "BRAM_HWICAP"; }
  [[nodiscard]] Frequency max_frequency() const override { return params_.f_max; }
  [[nodiscard]] CapacityClass capacity_class() const override {
    return CapacityClass::kLimited;
  }

  [[nodiscard]] Status stage(const bits::PartialBitstream& bs) override;
  void reconfigure(ReconfigCallback done) override;

  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }

 private:
  void on_edge();
  void finish(bool success, std::string error, ErrorCause cause = ErrorCause::kNone);

  BramHwicapParams params_;
  icap::Icap& port_;
  sim::Clock clock_;
  mem::Bram bram_;
  std::unique_ptr<power::BlockPower> dma_power_;
  power::Rail* rail_;

  std::size_t total_words_ = 0;
  std::size_t next_word_ = 0;
  unsigned stall_cycles_ = 0;
  unsigned words_in_burst_ = 0;
  TimePs start_{};
  ReconfigCallback done_;
};

}  // namespace uparc::ctrl
