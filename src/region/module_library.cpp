#include "region/module_library.hpp"

#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"

namespace uparc::region {

ModuleLibrary::ModuleLibrary(compress::CodecId storage_codec)
    : codec_(compress::make_codec(storage_codec)) {
  if (codec_ == nullptr) throw std::invalid_argument("ModuleLibrary: unknown storage codec");
}

Status ModuleLibrary::add_module(const std::string& name, const bits::PartialBitstream& bs) {
  if (modules_.count(name) != 0) return make_error("duplicate module name: " + name);
  const Bytes compressed = codec_->compress(bits::to_file(bs));

  auto file = codec_->decompress(compressed);
  if (!file.ok()) return file.error();
  auto header = bits::parse_header(file.value());
  if (!header.ok()) return header.error();
  const auto& ph = header.value();
  bits::PartialBitstream stored;
  stored.header = ph.header;
  stored.body = bytes_to_words(
      BytesView(file.value()).subspan(ph.body_offset, stored.header.body_bytes));
  const std::optional<bits::Device> device = bits::identify_device(stored.body);
  if (!device) return make_error("stored module '" + name + "' has an unrecognizable device");
  auto parsed = bits::parse_body(*device, stored.body);
  if (!parsed.ok()) return parsed.error();
  stored.frames = std::move(parsed.value().frames);

  std::vector<u32> crcs = bits::frame_data_crcs(stored.frames);
  modules_.emplace(name, Module{compressed.size(), std::move(stored), std::move(crcs), {}});
  return Status::success();
}

void ModuleLibrary::prepare(const Floorplan& floorplan) {
  for (auto& [name, module] : modules_) {
    for (const Region& region : floorplan.regions()) {
      const u32 origin = region.geometry.origin.pack();
      if (module.placed.count(origin) != 0) continue;
      auto image = instantiate(name, floorplan, region);
      if (image.ok()) module.placed.emplace(origin, std::move(image).value());
    }
  }
}

std::size_t ModuleLibrary::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& [_, module] : modules_) total += module.stored_bytes;
  return total;
}

Result<bits::PartialBitstream> ModuleLibrary::original(const std::string& name) const {
  auto it = modules_.find(name);
  if (it == modules_.end()) return make_error("unknown module: " + name);
  return it->second.original;
}

Result<std::shared_ptr<const bits::Image>> ModuleLibrary::instantiate(
    const std::string& name, const Floorplan& floorplan, const Region& target) const {
  auto it = modules_.find(name);
  if (it == modules_.end()) return make_error("unknown module: " + name);
  const Module& module = it->second;

  std::shared_ptr<const bits::Image> image;
  if (auto placed = module.placed.find(target.geometry.origin.pack());
      placed != module.placed.end()) {
    image = placed->second;
  } else {
    auto relocated =
        bits::Image::relocate(module.original, module.frame_crcs, target.geometry.origin);
    if (!relocated.ok()) return relocated.error();
    image = std::move(relocated).value();
  }
  if (Status fits = floorplan.check_fits(target, image->bitstream()); !fits.ok()) {
    return fits.error();
  }
  return image;
}

}  // namespace uparc::region
