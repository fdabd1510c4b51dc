// The device configuration plane: the frame-addressed SRAM the ICAP writes
// into. Holds ground truth for "what is configured", letting tests verify
// that a controller delivered exactly the generator's frames.
#pragma once

#include <map>

#include "bitstream/frame.hpp"
#include "sim/module.hpp"

namespace uparc::icap {

class ConfigPlane : public sim::Module {
 public:
  ConfigPlane(sim::Simulation& sim, std::string name, bits::Device device);

  [[nodiscard]] const bits::Device& device() const noexcept { return device_; }

  /// Commits one frame (called by the ICAP on each full FDRI frame). A
  /// frame at the address after the previous write's, the FDRI
  /// auto-increment order, is found in O(1), and a rewrite reuses the
  /// frame's storage.
  void write_frame(const bits::FrameAddress& addr, WordsView data);

  /// Frame readback; returns nullptr if the frame was never written.
  [[nodiscard]] const Words* read_frame(const bits::FrameAddress& addr) const;

  [[nodiscard]] std::size_t frames_written() const noexcept { return store_.size(); }
  [[nodiscard]] u64 total_frame_writes() const noexcept { return writes_; }

  /// True iff every frame of `expected` is present with identical content.
  [[nodiscard]] bool contains(const std::vector<bits::Frame>& expected) const;
  /// True iff both planes hold the same frames with identical content.
  [[nodiscard]] bool same_frames(const ConfigPlane& other) const {
    return store_ == other.store_;
  }

  void clear();

 private:
  bits::Device device_;
  using Store = std::map<u32, Words>;  // keyed by FrameAddress::linear_index
  Store store_;
  Store::iterator last_ = store_.end();  // the previous write's frame
  u64 writes_ = 0;
};

}  // namespace uparc::icap
