// A fault tap's quiet answer (DESIGN §8, "Quiet runs").
//
// A module consults its fault tap once per opportunity: one BRAM read, one
// ICAP write. A tap may also say how many of its next opportunities it
// would leave untouched, so that the module can take them in one burst and
// let the tap account for them in one call. A tap without this answer sees
// every opportunity one by one, and nothing bursts past it.
#pragma once

#include <functional>

#include "common/types.hpp"

namespace uparc {

struct QuietRun {
  /// How many of the next `n` opportunities the tap leaves untouched (at
  /// most n). Asking again, with any n, never changes what it fires.
  std::function<u64(u64)> quiet;
  /// Lets `k` opportunities pass as the per-opportunity calls would;
  /// throws past the last answer of quiet().
  std::function<void(u64)> pass;

  [[nodiscard]] explicit operator bool() const noexcept { return static_cast<bool>(quiet); }
};

}  // namespace uparc
