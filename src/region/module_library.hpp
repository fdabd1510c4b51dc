// Module library: the external bitstream store the paper's Manager reads
// from (CompactFlash / host memory). add_module() compresses a module as
// the store keeps it at rest (stored_bytes() reports that size) and
// decodes the stored file once, hashing its frames; instantiate() hands
// out the module relocated to a region as a shared bits::Image. prepare() builds the Image of every (module, region origin)
// of a floorplan at setup, so loads into those regions neither relocate,
// hash nor lint (DESIGN §19).
#pragma once

#include <map>

#include "bitstream/image.hpp"
#include "compress/registry.hpp"
#include "region/region.hpp"

namespace uparc::region {

class ModuleLibrary {
 public:
  /// Modules are compressed at rest with `storage_codec`.
  explicit ModuleLibrary(compress::CodecId storage_codec = compress::CodecId::kXMatchPro);

  /// Registers a module's golden bitstream: compresses its .bit file, then
  /// decodes the stored file (the device its IDCODE names, its frames) and
  /// hashes its frames. Fails, registering nothing, on a duplicate name or
  /// a stored file that does not decode.
  [[nodiscard]] Status add_module(const std::string& name,
                                  const bits::PartialBitstream& bs);

  /// Builds the Image of every module at every region origin of
  /// `floorplan` that instantiate() accepts, so instantiate() returns it
  /// without relocating. Setup only: call it before the library is shared;
  /// afterwards the table is only read, from any thread.
  void prepare(const Floorplan& floorplan);

  [[nodiscard]] bool has(const std::string& name) const { return modules_.count(name) != 0; }
  [[nodiscard]] std::size_t size() const noexcept { return modules_.size(); }
  /// Bytes occupied at rest (compressed).
  [[nodiscard]] std::size_t stored_bytes() const;

  /// The module relocated to `target` and validated against the region
  /// window: the prepared Image for the region origin, else one relocated
  /// now and not kept.
  [[nodiscard]] Result<std::shared_ptr<const bits::Image>> instantiate(
      const std::string& name, const Floorplan& floorplan, const Region& target) const;

  /// The decoded module at its original (compile-time) location.
  [[nodiscard]] Result<bits::PartialBitstream> original(const std::string& name) const;

 private:
  struct Module {
    std::size_t stored_bytes = 0;  ///< compressed .bit file size
    bits::PartialBitstream original;
    std::vector<u32> frame_crcs;  ///< bits::frame_data_crcs(original.frames)
    /// Prepared instances by packed region-origin FAR.
    std::map<u32, std::shared_ptr<const bits::Image>> placed;
  };

  std::unique_ptr<compress::Codec> codec_;
  std::map<std::string, Module> modules_;
};

}  // namespace uparc::region
