#include "core/uparc.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/bitstream_lint.hpp"
#include "bitstream/generator.hpp"
#include "core/resources.hpp"
#include "obs/trace.hpp"
#include "power/calibration.hpp"

namespace uparc::core {

// The paper's prototype (Sec. III-IV): a 256 KB bitstream BRAM, DyCloGen fed
// by the 100 MHz oscillator through DCMs that lock in 50 us, a typical part
// at the nominal 1.0 V / 20 C, and a 255 MHz ceiling in compressed mode.
constexpr std::size_t kBramBytes = 256 * 1024;
constexpr Frequency kOscillator = Frequency::mhz(100);
constexpr TimePs kDcmLockTime = TimePs::from_us(50);
constexpr u64 kSiliconSample = 0;
constexpr OperatingConditions kConditions{};
constexpr Frequency kCompressedModeFmax = Frequency::mhz(255);
constexpr u64 kCacheLookupCycles = 24;  ///< bitstream-cache tag check, manager cycles

Uparc::Uparc(sim::Simulation& sim, std::string name, icap::Icap& port, UparcConfig config,
             power::Rail* rail)
    : ReconfigController(sim, std::move(name)),
      config_(config),
      port_(port),
      rail_(rail),
      dyclogen_(sim, this->name() + ".dyclogen", kOscillator, kDcmLockTime),
      bram_(sim, this->name() + ".bram", kBramBytes),
      decomp_(sim, this->name() + ".decomp", dyclogen_.clock(clocking::ClockId::kDecompress),
              compress::HardwareProfile{}),
      urec_(sim, this->name() + ".urec", dyclogen_.clock(clocking::ClockId::kReconfig), bram_,
            port, &decomp_),
      manager_(sim, this->name() + "." + config.manager.name, config.manager.clock,
               config.manager.costs),
      preloader_(sim, this->name() + ".preloader", manager_, bram_),
      control_(sim, this->name() + ".control", manager_, rail, config.wait_mode,
               config.manager.control_burst_mw, config.manager.active_wait_mw),
      timing_(config.device, kSiliconSample),
      adapter_(dyclogen_, timing_.max_reliable(kConditions), control_.control_overhead(),
               config.wait_mode, config.manager.active_wait_mw),
      codec_id_(config.codec) {
  codec_impl_ = compress::make_codec(codec_id_);
  if (codec_impl_ == nullptr) throw std::invalid_argument("Uparc: unknown codec");
  decomp_.set_profile(codec_impl_->hardware());
  bind_power(rail);
}

void Uparc::bind_power(power::Rail* rail) {
  if (rail == nullptr) return;
  datapath_power_ = std::make_unique<power::BlockPower>(
      *rail, name() + ".datapath", dyclogen_.clock(clocking::ClockId::kReconfig),
      [](Frequency f) { return power::reconfig_datapath_mw(f); });
  decomp_power_ = std::make_unique<power::BlockPower>(
      *rail, name() + ".decompressor", dyclogen_.clock(clocking::ClockId::kDecompress),
      [](Frequency f) { return power::decompressor_mw(f); });
}

Frequency Uparc::max_frequency() const {
  const Frequency reliable = timing_.max_reliable(kConditions);
  return mode_compressed_ ? std::min(reliable, kCompressedModeFmax) : reliable;
}

Status Uparc::set_codec(compress::CodecId codec) {
  auto impl = compress::make_codec(codec);
  if (impl == nullptr) {
    return make_error("UPaRC: unknown codec", ErrorCause::kUnsupported);
  }
  codec_id_ = codec;
  codec_impl_ = std::move(impl);
  decomp_.set_profile(codec_impl_->hardware());
  return Status::success();
}

void Uparc::set_cache(cache::BitstreamCache* cache) {
  cache_ = cache;
  resident_.reset();
  last_stage_tier_ = cache::CacheTier::kBypass;
}

Status Uparc::stage(const bits::PartialBitstream& bs) { return stage_internal(bs, nullptr); }

Status Uparc::stage(const bits::Image& image) {
  return stage_internal(image.bitstream(), &image);
}

Status Uparc::stage_internal(const bits::PartialBitstream& bs, const bits::Image* image) {
  if (urec_.busy()) {
    return make_error("UPaRC: stage while a reconfiguration is in flight",
                      ErrorCause::kBusy);
  }
  if (control_.busy()) {
    return make_error("UPaRC: stage while the manager is mid-launch", ErrorCause::kBusy);
  }
  obs::Tracer* tr = tracer();
  if (config_.lint_gate) {
    const obs::SpanId lint_span =
        tr != nullptr ? tr->begin("lint.check", "lint") : obs::kNoSpan;
    std::optional<analysis::LintVerdict> fresh;
    const analysis::LintVerdict* verdict =
        image != nullptr ? image->lint_for(config_.device) : nullptr;
    if (verdict == nullptr) {
      verdict = &fresh.emplace(analysis::lint_verdict(config_.device, bs.body));
    }
    const std::optional<analysis::Diagnostic>& first_error = verdict->first_error;
    if (tr != nullptr) {
      tr->arg(lint_span, "diagnostics", static_cast<double>(verdict->diagnostics));
      tr->arg(lint_span, "passed", !first_error);
      if (first_error) tr->arg(lint_span, "rule", first_error->rule);
      tr->end(lint_span);
    }
    if (first_error) {
      metrics().counter(name() + ".lint_rejects").add();
      return make_error("UPaRC: lint_gate rejected image: " + first_error->rule + " @ " +
                            first_error->location.describe() + ": " + first_error->message,
                        ErrorCause::kBadInput);
    }
  }

  const std::size_t raw_needed = (1 + bs.body.size()) * 4;
  const bool raw_fits = raw_needed <= bram_.size_bytes();

  // --- cache bookkeeping ---------------------------------------------------
  std::optional<cache::CacheKey> key;
  if (cache_ != nullptr) {
    const u8 codec = static_cast<u8>(codec_id_);
    if (image != nullptr) {
      key = raw_fits ? cache::key_of(*image) : cache::key_of_compressed(*image, codec);
    } else {
      key = raw_fits ? cache::key_of(bs) : cache::key_of_compressed(bs, codec);
    }
  }
  last_stage_tier_ = cache_ == nullptr ? cache::CacheTier::kBypass : cache::CacheTier::kMiss;

  staged_payload_bytes_ = bs.body.size() * 4;
  staging_done_ = false;
  metrics().counter(name() + ".stages").add();
  if (tr != nullptr) {
    tr->end(stage_span_);  // a restage supersedes an unfinished staging
    stage_span_ = tr->begin("uparc.stage", "stage");
    tr->arg(stage_span_, "payload_bytes", static_cast<double>(staged_payload_bytes_));
  }

  inflight_key_ = key;
  const auto staged_cb = [this, e = ++staging_epoch_] {
    if (e == staging_epoch_) on_staged();
  };

  Status st = Status::success();
  if (raw_fits) {
    // Preloading without compression (paper mode i).
    mode_compressed_ = false;
    stored_bytes_ = raw_needed;
    if (tr != nullptr) tr->arg(stage_span_, "mode", "uncompressed");

    bool served_from_cache = false;
    if (cache_ != nullptr) {
      if (resident_ && *resident_ == *key && preloader_.last_copy_complete()) {
        // L0: the staging window already holds this image; only the tag
        // check is charged (the re-store rewrites identical content).
        last_stage_tier_ = cache::CacheTier::kResident;
        metrics().counter(name() + ".cache_resident_hits").add();
        st = preloader_.preload_cached(false, bs.body, kCacheLookupCycles, staged_cb);
        served_from_cache = st.ok();
      } else {
        const bits::FrameAddress* origin =
            bs.frames.empty() ? nullptr : &bs.frames.front().address;
        auto served = cache_->lookup(*key, origin);
        if (served && served->words == bs.body) {
          last_stage_tier_ = served->tier;
          resident_.reset();
          st = preloader_.preload_cached(
              false, served->words, kCacheLookupCycles + served->copy_cycles,
              staged_cb);
          served_from_cache = st.ok();
        } else if (served) {
          // Content-addressed entry disagreeing with the host image should
          // be impossible; purge it and fall through to a real preload.
          cache_->invalidate(*key);
          metrics().counter(name() + ".cache_false_hits").add();
        }
      }
    }
    if (!served_from_cache) {
      resident_.reset();
      st = preloader_.preload_body(bs.body, staged_cb);
      if (cache_ != nullptr && st.ok()) {
        cache_->admit(*key, bs.body, bs.body.size() * 4,
                      bs.frames.empty() ? bits::FrameAddress{} : bs.frames.front().address,
                      /*relocatable=*/!bs.frames.empty());
      }
    }
    if (tr != nullptr && cache_ != nullptr) {
      tr->arg(stage_span_, "cache_tier", std::string(cache::to_string(last_stage_tier_)));
    }
    return st;
  }

  {
    // Preloading with compression (paper mode ii). A cache hit serves the
    // already-built container, skipping even the offline compression.
    bool served_from_cache = false;
    if (cache_ != nullptr && resident_ && *resident_ == *key &&
        preloader_.last_copy_complete() && !staged_container_.empty()) {
      // L0: the container of this very image is still in the staging
      // window; stored_bytes_/decomp_input_words_ from the previous stage
      // remain valid.
      mode_compressed_ = true;
      last_stage_tier_ = cache::CacheTier::kResident;
      metrics().counter(name() + ".cache_resident_hits").add();
      decomp_output_ = bs.body;
      if (tr != nullptr) {
        tr->arg(stage_span_, "mode", "compressed");
        tr->arg(stage_span_, "stored_bytes", static_cast<double>(stored_bytes_));
      }
      dyclogen_.request_frequency(clocking::ClockId::kDecompress,
                                  codec_impl_->hardware().fmax);
      st = preloader_.preload_cached(true, staged_container_,
                                     kCacheLookupCycles, staged_cb);
      served_from_cache = st.ok();
    } else if (cache_ != nullptr) {
      // Containers are pinned to their origin FAR, so no relocation here.
      auto served = cache_->lookup(*key, nullptr);
      if (served) {
        mode_compressed_ = true;
        last_stage_tier_ = served->tier;
        resident_.reset();
        stored_bytes_ = served->exact_bytes + 4;
        decomp_output_ = bs.body;
        decomp_input_words_ = served->words.size();
        staged_container_ = std::move(served->words);
        metrics().gauge(name() + ".compression_ratio")
            .set(static_cast<double>(staged_payload_bytes_) /
                 static_cast<double>(stored_bytes_));
        if (tr != nullptr) {
          tr->arg(stage_span_, "mode", "compressed");
          tr->arg(stage_span_, "stored_bytes", static_cast<double>(stored_bytes_));
        }
        dyclogen_.request_frequency(clocking::ClockId::kDecompress,
                                    codec_impl_->hardware().fmax);
        st = preloader_.preload_cached(true, staged_container_,
                                       kCacheLookupCycles + served->copy_cycles,
                                       staged_cb);
        served_from_cache = st.ok();
      }
    }

    if (!served_from_cache) {
      // The container is built offline ("compressed offline using
      // PC-running software").
      const obs::SpanId compress_span =
          tr != nullptr ? tr->begin("stage.compress_offline", "stage") : obs::kNoSpan;
      const Bytes packed = words_to_bytes(bs.body);
      const Bytes container = codec_impl_->compress(packed);
      if (tr != nullptr) {
        tr->arg(compress_span, "codec", std::string(codec_impl_->name()));
        tr->arg(compress_span, "container_bytes", static_cast<double>(container.size()));
        tr->end(compress_span);
      }
      if (4 + ((container.size() + 3) / 4) * 4 > bram_.size_bytes()) {
        if (tr != nullptr) {
          tr->arg(stage_span_, "outcome", "capacity_exceeded");
          tr->end(stage_span_);
        }
        return make_error("UPaRC: bitstream exceeds BRAM even compressed (" +
                              std::to_string(container.size()) + " bytes with " +
                              std::string(codec_impl_->name()) + ")",
                          ErrorCause::kCapacity);
      }
      mode_compressed_ = true;
      stored_bytes_ = container.size() + 4;
      decomp_output_ = bs.body;
      decomp_input_words_ = (container.size() + 3) / 4;
      staged_container_ = bytes_to_words(container);
      resident_.reset();
      metrics().gauge(name() + ".compression_ratio")
          .set(static_cast<double>(staged_payload_bytes_) /
               static_cast<double>(stored_bytes_));
      if (tr != nullptr) {
        tr->arg(stage_span_, "mode", "compressed");
        tr->arg(stage_span_, "codec", std::string(codec_impl_->name()));
        tr->arg(stage_span_, "stored_bytes", static_cast<double>(stored_bytes_));
      }
      // Run the decompressor at its own F_max (CLK_3 is independent of the
      // reconfiguration clock — paper §IV). Relock completes well inside
      // the preload copy time.
      dyclogen_.request_frequency(clocking::ClockId::kDecompress,
                                  codec_impl_->hardware().fmax);
      st = preloader_.preload_compressed(container, staged_cb);
      if (cache_ != nullptr && st.ok()) {
        cache_->admit(*key, staged_container_, container.size(),
                      bs.frames.empty() ? bits::FrameAddress{} : bs.frames.front().address,
                      /*relocatable=*/false);
      }
    }
    if (tr != nullptr && cache_ != nullptr) {
      tr->arg(stage_span_, "cache_tier", std::string(cache::to_string(last_stage_tier_)));
    }
  }
  return st;
}

void Uparc::on_staged() {
  staging_done_ = true;
  if (cache_ != nullptr) {
    // The staging window only becomes a trustworthy L0 entry when every
    // word landed — a truncated copy leaves a stale tail.
    if (inflight_key_ && preloader_.last_copy_complete()) {
      resident_ = inflight_key_;
    } else {
      resident_.reset();
    }
  }
  metrics().gauge(name() + ".staged_bytes").set(static_cast<double>(stored_bytes_));
  if (obs::Tracer* tr = tracer()) tr->end(stage_span_);
  if (pending_reconfig_) {
    auto go = std::move(pending_reconfig_);
    pending_reconfig_ = nullptr;
    go();
  }
}

void Uparc::reconfigure(ctrl::ReconfigCallback done) {
  if (staged_payload_bytes_ == 0) {
    ctrl::ReconfigResult r;
    r.error = "UPaRC: reconfigure without stage";
    r.cause = ErrorCause::kNotStaged;
    done(r);
    return;
  }
  if (!staging_done_) {
    // The preload is still copying; launch as soon as it lands.
    pending_reconfig_ = [this, done = std::move(done)]() mutable {
      reconfigure(std::move(done));
    };
    return;
  }

  const TimePs start_time = sim_.now();
  metrics().counter(name() + ".reconfigures").add();
  metrics().gauge(name() + ".clk2_mhz")
      .set(dyclogen_.frequency(clocking::ClockId::kReconfig).in_mhz());
  if (obs::Tracer* tr = tracer()) {
    reconfig_span_ = tr->begin("uparc.reconfigure", "reconfig");
    tr->arg(reconfig_span_, "mode", mode_compressed_ ? "compressed" : "uncompressed");
    tr->arg(reconfig_span_, "payload_bytes", static_cast<double>(staged_payload_bytes_));
    tr->arg(reconfig_span_, "clk2_mhz",
            dyclogen_.frequency(clocking::ClockId::kReconfig).in_mhz());
  }
  control_.launch(
      [this](std::function<void()> finish) {
        if (mode_compressed_) {
          // Streaming decode when the codec supports it (the data then
          // truly flows through the decoder); offline replay otherwise.
          auto streaming = compress::make_streaming_decoder(codec_id_);
          if (streaming != nullptr) {
            decomp_.arm_streaming(std::move(streaming), decomp_output_.size(),
                                  decomp_input_words_);
          } else {
            decomp_.arm(decomp_output_, decomp_input_words_);
          }
          if (decomp_power_) decomp_power_->set_active(true);
          dyclogen_.clock(clocking::ClockId::kDecompress).enable();
        }
        if (datapath_power_) datapath_power_->set_active(true);
        urec_.start([this, finish = std::move(finish)] {
          if (datapath_power_) datapath_power_->set_active(false);
          if (mode_compressed_) {
            dyclogen_.clock(clocking::ClockId::kDecompress).disable();
            if (decomp_power_) decomp_power_->set_active(false);
          }
          finish();
        });
      },
      [this, done = std::move(done), start_time]() {
        ctrl::ReconfigResult r;
        r.start = start_time;
        r.end = sim_.now();
        r.payload_bytes = staged_payload_bytes_;
        if (urec_.state() != UrecState::kFinished) {
          r.success = false;
          r.error = "UReC: " + urec_.error_message();
          r.cause = urec_.error_cause() == ErrorCause::kNone ? ErrorCause::kUnknown
                                                             : urec_.error_cause();
        } else if (!port_.done()) {
          r.success = false;
          r.error = "ICAP did not reach DESYNC";
          r.cause = ErrorCause::kNoDesync;
        } else if (port_.crc_checked() && !port_.crc_ok()) {
          r.success = false;
          r.error = "configuration CRC mismatch";
          r.cause = ErrorCause::kCrcMismatch;
        } else {
          r.success = true;
        }
        if (rail_ != nullptr) r.energy_uj = rail_->energy_uj(r.start, r.end);
        metrics().counter(name() + (r.success ? ".reconfig_success" : ".reconfig_failures"))
            .add();
        metrics().histogram(name() + ".reconfig_us").observe((r.end - r.start).us());
        metrics().meter(name() + ".payload_bytes")
            .add(static_cast<double>(r.payload_bytes), r.end);
        if (obs::Tracer* tr = tracer()) {
          tr->arg(reconfig_span_, "success", r.success);
          if (!r.success) tr->arg(reconfig_span_, "cause", to_string(r.cause));
          tr->end(reconfig_span_);
        }
        done(r);
      });
}

void Uparc::cache_promote(const bits::Image& image) {
  if (cache_ == nullptr) return;
  const bits::PartialBitstream& bs = image.bitstream();
  const std::size_t raw_needed = (1 + bs.body.size()) * 4;
  if (raw_needed <= bram_.size_bytes()) {
    const cache::CacheKey key = cache::key_of(image);
    if (!cache_->contains(key)) {
      // A committed image is known good — cache it even if the original
      // stage predated the cache attachment.
      cache_->admit(key, bs.body, bs.body.size() * 4,
                    bs.frames.empty() ? bits::FrameAddress{} : bs.frames.front().address,
                    /*relocatable=*/!bs.frames.empty());
    }
    cache_->promote(key);
  } else {
    cache_->promote(cache::key_of_compressed(image, static_cast<u8>(codec_id_)));
  }
}

void Uparc::cache_invalidate(const bits::Image& image) {
  if (cache_ == nullptr) return;
  const cache::CacheKey raw = cache::key_of(image);
  const cache::CacheKey comp = cache::key_of_compressed(image, static_cast<u8>(codec_id_));
  cache_->invalidate(raw);
  cache_->invalidate(comp);
  if (resident_ && (*resident_ == raw || *resident_ == comp)) resident_.reset();
}

std::optional<manager::AdaptationPlan> Uparc::adapt(manager::FrequencyPolicy policy,
                                                    TimePs deadline) {
  if (!mode_compressed_) {
    return adapter_.apply(policy, staged_payload_bytes_, deadline);
  }
  // Compressed mode: the UReC/ICAP clock is additionally capped (255 MHz).
  manager::FrequencyAdapter capped(dyclogen_, max_frequency(), control_.control_overhead(),
                                   config_.wait_mode);
  return capped.apply(policy, staged_payload_bytes_, deadline);
}

std::optional<clocking::MdChoice> Uparc::set_frequency(Frequency target,
                                                       std::function<void()> relocked) {
  const Frequency capped = std::min(target, max_frequency());
  return dyclogen_.request_frequency(clocking::ClockId::kReconfig, capped,
                                     std::move(relocked));
}

void Uparc::swap_decompressor(compress::CodecId codec, ctrl::ReconfigCallback done) {
  auto impl = compress::make_codec(codec);
  if (impl == nullptr) {
    ctrl::ReconfigResult r;
    r.error = "UPaRC: unknown decompressor codec";
    r.cause = ErrorCause::kUnsupported;
    done(r);
    return;
  }

  // The decompressor slot is itself a reconfigurable module (Fig. 2): build
  // its partial bitstream, sized from its slice count, and load it through
  // this very controller.
  const auto hw = impl->hardware();
  bits::GeneratorConfig gen;
  gen.device = config_.device;
  gen.design_name = "decompressor_slot";
  gen.target_body_bytes = static_cast<std::size_t>(hw.slices_v5) * 180;  // ~bytes/slice
  gen.seed = static_cast<u64>(codec) * 7919 + 17;
  bits::PartialBitstream slot = bits::Generator(gen).generate();

  Status st = stage(slot);
  if (!st.ok()) {
    ctrl::ReconfigResult r;
    r.error = "UPaRC: decompressor swap staging failed: " + st.error().message;
    r.cause = st.error().cause;
    done(r);
    return;
  }
  reconfigure([this, codec, impl = std::shared_ptr<compress::Codec>(std::move(impl)),
               done = std::move(done)](const ctrl::ReconfigResult& r) mutable {
    if (!r.success) {
      done(r);
      return;
    }
    // Module swapped: install the codec and retune CLK_3 to its F_max.
    codec_id_ = codec;
    codec_impl_ = compress::make_codec(codec);
    decomp_.set_profile(impl->hardware());
    dyclogen_.request_frequency(clocking::ClockId::kDecompress, impl->hardware().fmax,
                                [this, done = std::move(done), r]() { done(r); });
  });
}

}  // namespace uparc::core
