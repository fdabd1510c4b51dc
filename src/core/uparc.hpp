// UPaRC — the ultra-fast power-aware reconfiguration controller (paper
// Fig. 2): UReC + DyCloGen + decompressor + 256 KB dual-port bitstream BRAM,
// driven by a MicroBlaze manager (preloading, Start/Finish control,
// frequency adaptation).
//
// Implements the common ReconfigController interface so it slots into the
// Table III comparison, and adds the UPaRC-specific API: frequency policies
// (power-aware DVFS through DyCloGen), compressed preloading for bitstreams
// larger than the BRAM, and run-time decompressor exchange (the paper's
// future-work feature).
#pragma once

#include "bitstream/image.hpp"
#include "cache/bitstream_cache.hpp"
#include "clocking/dyclogen.hpp"
#include "compress/registry.hpp"
#include "controllers/controller.hpp"
#include "core/decompressor_unit.hpp"
#include "core/timing_model.hpp"
#include "core/urec.hpp"
#include "manager/adaptation.hpp"
#include "manager/control.hpp"
#include "manager/preloader.hpp"
#include "manager/profiles.hpp"

namespace uparc::core {

/// The paper's prototype values (BRAM size, oscillator, DCM lock time,
/// silicon sample, operating conditions, compressed-mode ceiling) are fixed
/// as constants in uparc.cpp.
struct UparcConfig {
  bits::Device device = bits::kVirtex5Sx50t;
  /// Manager implementation: the paper's MicroBlaze by default, or the
  /// §III-A small-hardware-modules alternative (hardware_fsm_profile()).
  manager::ManagerProfile manager = manager::microblaze_profile();
  manager::WaitMode wait_mode = manager::WaitMode::kActiveWait;
  compress::CodecId codec = compress::CodecId::kXMatchPro;
  /// Pre-flight static analysis: stage() lints the image and rejects it
  /// (ErrorCause::kBadInput, naming the first violated rule) before a
  /// single word is copied into the bitstream BRAM.
  bool lint_gate = true;
};

class Uparc final : public ctrl::ReconfigController {
 public:
  Uparc(sim::Simulation& sim, std::string name, icap::Icap& port, UparcConfig config = {},
        power::Rail* rail = nullptr);

  // ----- ReconfigController ------------------------------------------------
  [[nodiscard]] std::string_view kind() const override {
    return mode_compressed_ ? "UPaRC_ii" : "UPaRC_i";
  }
  [[nodiscard]] Frequency max_frequency() const override;
  [[nodiscard]] ctrl::CapacityClass capacity_class() const override {
    return mode_compressed_ ? ctrl::CapacityClass::kGood : ctrl::CapacityClass::kLimited;
  }
  /// Preloads through the Manager: uncompressed when the body fits the
  /// BRAM, compressed (offline, with the configured codec) otherwise —
  /// exactly the paper's two operating modes.
  [[nodiscard]] Status stage(const bits::PartialBitstream& bs) override;
  void reconfigure(ctrl::ReconfigCallback done) override;

  /// stage() of an Image's bitstream, reading the lint verdict and cache
  /// keys the Image memoized instead of recomputing them. A verdict linted
  /// for another device is not used: the gate lints for this one.
  [[nodiscard]] Status stage(const bits::Image& image);

  // ----- Bitstream cache ----------------------------------------------------
  /// Attaches a bitstream cache: stage() then checks the staging window
  /// (resident), the hot BRAM slots, and the DDR2 staging tier before
  /// paying the full external-storage preload, and admits every miss.
  /// Pass nullptr to detach. Without a cache the stage path is byte-for-
  /// byte the original (no key computation, no resident tracking).
  void set_cache(cache::BitstreamCache* cache);
  [[nodiscard]] cache::BitstreamCache* cache() const noexcept { return cache_; }
  /// Which tier served the most recent stage() (kBypass without a cache).
  [[nodiscard]] cache::CacheTier last_stage_tier() const noexcept {
    return last_stage_tier_;
  }

  /// Cache coherence hooks for the transaction layer: commit promotes the
  /// image (admitting it first if needed), rollback purges every key that
  /// could serve it — raw and current-codec compressed — and drops the
  /// resident tag so a poisoned staging window is never trusted.
  void cache_promote(const bits::Image& image);
  void cache_invalidate(const bits::Image& image);

  // ----- UPaRC-specific API ------------------------------------------------
  /// Chooses and programs the reconfiguration frequency per policy before
  /// the next reconfigure() (relock happens asynchronously).
  std::optional<manager::AdaptationPlan> adapt(manager::FrequencyPolicy policy,
                                               TimePs deadline = TimePs::from_ms(1e6));

  /// Directly requests a reconfiguration frequency (capped at the timing
  /// model's reliable maximum).
  std::optional<clocking::MdChoice> set_frequency(Frequency target,
                                                  std::function<void()> relocked = {});

  /// Runtime decompressor exchange (future work §VI): reconfigures the
  /// decompressor slot using UPaRC itself, then retunes CLK_3 to the new
  /// codec's F_max. `done` reports the swap result.
  void swap_decompressor(compress::CodecId codec, ctrl::ReconfigCallback done);

  /// Manager-side codec re-provision *without* a hardware slot swap: the
  /// next stage() builds its container with `codec` and the decompressor
  /// timing profile follows. The RecoveryManager uses this as the
  /// codec-fallback path after repeated decompressor failures (modeling
  /// substitution: a real deployment keeps the fallback decoder resident).
  [[nodiscard]] Status set_codec(compress::CodecId codec);

  [[nodiscard]] compress::CodecId codec() const noexcept { return codec_id_; }
  [[nodiscard]] bool staged_compressed() const noexcept { return mode_compressed_; }
  [[nodiscard]] std::size_t staged_stored_bytes() const noexcept { return stored_bytes_; }

  [[nodiscard]] clocking::DyCloGen& dyclogen() noexcept { return dyclogen_; }
  [[nodiscard]] UReC& urec() noexcept { return urec_; }
  [[nodiscard]] mem::Bram& bram() noexcept { return bram_; }
  [[nodiscard]] manager::MicroBlaze& manager() noexcept { return manager_; }
  [[nodiscard]] manager::Preloader& preloader() noexcept { return preloader_; }
  [[nodiscard]] manager::FrequencyAdapter& adapter() noexcept { return adapter_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }
  [[nodiscard]] DecompressorUnit& decompressor() noexcept { return decomp_; }
  [[nodiscard]] const UparcConfig& config() const noexcept { return config_; }

 private:
  void bind_power(power::Rail* rail);
  void on_staged();
  /// `image` is null on the PartialBitstream entry points, which lint and
  /// hash `bs` from scratch; otherwise `bs` is its bitstream.
  [[nodiscard]] Status stage_internal(const bits::PartialBitstream& bs, const bits::Image* image);

  UparcConfig config_;
  icap::Icap& port_;
  power::Rail* rail_;

  clocking::DyCloGen dyclogen_;
  mem::Bram bram_;
  DecompressorUnit decomp_;
  UReC urec_;
  manager::MicroBlaze manager_;
  manager::Preloader preloader_;
  manager::ReconfigControl control_;
  TimingModel timing_;
  manager::FrequencyAdapter adapter_;

  std::unique_ptr<compress::Codec> codec_impl_;
  compress::CodecId codec_id_;
  std::unique_ptr<power::BlockPower> datapath_power_;
  std::unique_ptr<power::BlockPower> decomp_power_;

  bool mode_compressed_ = false;
  bool staging_done_ = false;
  // Bumped by every stage(); a preload completion from a superseded staging
  // (e.g. a recovery restage racing an in-flight copy) is dropped.
  u64 staging_epoch_ = 0;
  std::function<void()> pending_reconfig_;
  Words decomp_output_;                 // ground-truth stream for the armed unit
  std::size_t decomp_input_words_ = 0;  // compressed container length in words
  std::size_t stored_bytes_ = 0;
  u64 staged_payload_bytes_ = 0;
  std::size_t stage_span_ = static_cast<std::size_t>(-1);
  std::size_t reconfig_span_ = static_cast<std::size_t>(-1);

  // ----- cache state --------------------------------------------------------
  cache::BitstreamCache* cache_ = nullptr;
  cache::CacheTier last_stage_tier_ = cache::CacheTier::kBypass;
  Words staged_container_;  // compressed container of the staged image
  // Key of the image currently (or about to be) occupying the staging
  // window; resident_ is only trusted when the copy landed complete.
  std::optional<cache::CacheKey> resident_;
  std::optional<cache::CacheKey> inflight_key_;
};

}  // namespace uparc::core
