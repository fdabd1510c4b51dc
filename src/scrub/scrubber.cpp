#include "scrub/scrubber.hpp"

#include "core/uparc.hpp"

namespace uparc::scrub {

Scrubber::Scrubber(sim::Simulation& sim, std::string name, ctrl::ReconfigController& repair,
                   Readback& readback, const std::vector<bits::Frame>& golden_frames,
                   ScrubberConfig config)
    : Module(sim, std::move(name)),
      repair_(repair),
      readback_(readback),
      golden_frames_(golden_frames),
      golden_(golden_frames),
      config_(config) {}

void Scrubber::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void Scrubber::stop() {
  running_ = false;
  ++epoch_;
}

void Scrubber::schedule_next() {
  if (!running_) return;
  const u64 epoch = epoch_;
  sim_.schedule_in(config_.period, [this, epoch] {
    if (epoch != epoch_ || !running_) return;
    if (round_in_flight_) {  // previous round overran the period: skip
      metrics().counter(name() + ".rounds_skipped").add();
      schedule_next();
      return;
    }
    scrub_once([this, epoch](bool) {
      if (epoch == epoch_) schedule_next();
    });
  });
}

bits::PartialBitstream Scrubber::make_frame_repair_bitstream(const bits::Device& device,
                                                             const bits::Frame& frame) {
  bits::PacketWriter pw;
  pw.prologue();
  bits::ConfigCrc crc;
  auto tracked = [&](bits::ConfigReg reg, u32 value) {
    pw.write_reg(reg, value);
    crc.write(reg, value);
  };
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kRcrc));
  crc.reset();
  tracked(bits::ConfigReg::kIdcode, device.idcode);
  tracked(bits::ConfigReg::kFar, frame.address.pack());
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kWcfg));

  const std::size_t fdri_offset = pw.words().size() + 2;
  pw.write_fdri(frame.data);
  crc.write(bits::ConfigReg::kFdri, frame.data);
  pw.write_crc(crc.value());
  pw.command(bits::Command::kDesync);
  pw.noop(1);

  bits::PartialBitstream out;
  out.body = pw.take();
  out.fdri_offset = fdri_offset;
  out.fdri_words = frame.data.size();
  out.frames = {frame};
  out.header.design_name = "frame_repair";
  out.header.part_name = std::string(device.name);
  out.header.body_bytes = static_cast<u32>(out.body.size() * 4);
  return out;
}

void Scrubber::repair(std::function<void(bool)> done) {
  const TimePs t0 = sim_.now();
  repair_.reconfigure([this, t0, done = std::move(done)](const ctrl::ReconfigResult& r) {
    stats_.repair_time += sim_.now() - t0;
    if (r.success) {
      ++stats_.repairs;
      metrics().counter(name() + ".repairs").add();
    } else {
      metrics().counter(name() + ".uncorrectable").add();
    }
    round_in_flight_ = false;
    done(r.success);
  });
}

void Scrubber::repair_frames(std::vector<bits::FrameAddress> damaged, std::size_t index,
                             std::function<void(bool)> done) {
  if (index >= damaged.size()) {
    round_in_flight_ = false;
    done(true);
    return;
  }
  // Locate the golden frame for this address.
  const bits::Frame* frame = nullptr;
  for (const auto& f : golden_frames_) {
    if (f.address == damaged[index]) frame = &f;
  }
  if (frame == nullptr) {  // outside the golden region: cannot repair
    metrics().counter(name() + ".uncorrectable").add();
    round_in_flight_ = false;
    done(false);
    return;
  }

  // Frame repairs go through the same controller: a full-region repair is
  // staged there, so restage the golden image afterwards (see scrub_once).
  auto* uparc = dynamic_cast<core::Uparc*>(&repair_);
  if (uparc == nullptr) {
    // Controllers without restaging support fall back to a full rewrite.
    repair(std::move(done));
    return;
  }

  auto mini = make_frame_repair_bitstream(uparc->config().device, *frame);
  const TimePs t0 = sim_.now();
  Status staged = uparc->stage(mini);
  if (!staged.ok()) {
    round_in_flight_ = false;
    done(false);
    return;
  }
  uparc->reconfigure([this, damaged = std::move(damaged), index, t0,
                      done = std::move(done)](const ctrl::ReconfigResult& r) mutable {
    stats_.repair_time += sim_.now() - t0;
    if (!r.success) {
      metrics().counter(name() + ".uncorrectable").add();
      round_in_flight_ = false;
      done(false);
      return;
    }
    ++stats_.repairs;
    metrics().counter(name() + ".repairs").add();
    repair_frames(std::move(damaged), index + 1, std::move(done));
  });
}

void Scrubber::scrub_once(std::function<void(bool repaired)> done) {
  round_in_flight_ = true;
  ++stats_.rounds;
  metrics().counter(name() + ".rounds").add();

  if (config_.mode == ScrubMode::kBlind) {
    repair(std::move(done));
    return;
  }

  const TimePs t0 = sim_.now();
  readback_.verify_region(golden_, [this, t0, done = std::move(done)](
                                       const ReadbackReport& report) mutable {
    stats_.readback_time += sim_.now() - t0;
    if (report.clean()) {
      round_in_flight_ = false;
      done(false);
      return;
    }
    stats_.mismatched_frames += report.mismatches.size();
    metrics().counter(name() + ".mismatched_frames")
        .add(static_cast<double>(report.mismatches.size()));
    if (config_.mode == ScrubMode::kFrameRepair) {
      repair_frames(report.mismatches, 0, std::move(done));
    } else {
      repair(std::move(done));
    }
  });
}

}  // namespace uparc::scrub
