#include "region/module_library.hpp"

#include "bitstream/parser.hpp"
#include "bitstream/writer.hpp"

namespace uparc::region {

ModuleLibrary::ModuleLibrary(compress::CodecId storage_codec)
    : codec_(compress::make_codec(storage_codec)) {
  if (codec_ == nullptr) throw std::invalid_argument("ModuleLibrary: unknown storage codec");
}

Status ModuleLibrary::add_module(const std::string& name, const bits::PartialBitstream& bs) {
  if (images_.count(name) != 0) return make_error("duplicate module name: " + name);
  Bytes file = bits::to_file(bs);
  StoredImage img;
  img.original_bytes = file.size();
  img.compressed_file = codec_->compress(file);
  images_.emplace(name, std::move(img));
  return Status::success();
}

std::size_t ModuleLibrary::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& [_, img] : images_) total += img.compressed_file.size();
  return total;
}

Result<bits::PartialBitstream> ModuleLibrary::original(const std::string& name) const {
  auto it = images_.find(name);
  if (it == images_.end()) return make_error("unknown module: " + name);

  auto file = codec_->decompress(it->second.compressed_file);
  if (!file.ok()) return file.error();

  auto header = bits::parse_header(file.value());
  if (!header.ok()) return header.error();
  const auto& ph = header.value();
  bits::PartialBitstream bs;
  bs.header = ph.header;
  bs.body = bytes_to_words(
      BytesView(file.value()).subspan(ph.body_offset, bs.header.body_bytes));
  const std::optional<bits::Device> device = bits::identify_device(bs.body);
  if (!device) return make_error("stored module '" + name + "' has an unrecognizable device");
  auto parsed = bits::parse_body(*device, bs.body);
  if (!parsed.ok()) return parsed.error();
  bs.frames = std::move(parsed.value().frames);
  return bs;
}

Result<bits::PartialBitstream> ModuleLibrary::instantiate(const std::string& name,
                                                          const Floorplan& floorplan,
                                                          const Region& target) const {
  auto bs = original(name);
  if (!bs.ok()) return bs.error();

  auto relocated = bits::relocate(bs.value(), target.geometry.origin);
  if (!relocated.ok()) return relocated.error();

  if (Status fits = floorplan.check_fits(target, relocated.value()); !fits.ok()) {
    return fits.error();
  }
  return relocated;
}

}  // namespace uparc::region
