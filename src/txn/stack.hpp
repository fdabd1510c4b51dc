// The controller stack every soak and serve device runs: one UPaRC System
// whose region Manager preloads modules into region windows through the
// transactional layer, plus the chaos fault plan, the uniform module set
// and the one-column-apart floorplan those harnesses share.
//
// A ControllerStack wires, in one place: core::System (UPaRC + cache +
// power rail), an optional in-memory WAL, TxnManager, RegionManager over a
// floorplan sized for the module set, and an unarmed chaos FaultInjector.
// recover_from() is the one cold restart: the fabric keeps its frames, the
// controller rebuilds its state from the dead stack's WAL.
#pragma once

#include <optional>

#include "core/system.hpp"
#include "fault/injector.hpp"
#include "region/region_manager.hpp"
#include "txn/recovery.hpp"
#include "txn/wal.hpp"

namespace uparc::txn {

/// Seed salt of the chaos plan in the txn chaos and crash soaks.
inline constexpr u64 kChaosSalt = 0xC4A05C4A05ULL;

/// The full-rate chaos plan: every site on the reconfiguration path armed
/// at rates high enough that most soaks exercise every recovery and
/// rollback ladder rung, scaled by `scale` (<= 0 arms nothing). `seed` is
/// the plan seed as given; each harness salts its own.
[[nodiscard]] fault::FaultPlan chaos_plan(u64 seed, double scale);

/// Equal-size modules "m0".."m<n-1>" and their one compressed library.
/// Identical sizing means every module fits every region window exactly
/// (Floorplan::check_fits requires it). After setup the set is only read,
/// so one set can serve a whole fleet across worker threads.
struct ModuleSet {
  std::vector<bits::PartialBitstream> images;  ///< images[m] is module "m<m>"
  region::ModuleLibrary library;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(images.size());
  }
  /// Frames per module (the same for every module).
  [[nodiscard]] std::size_t frames() const noexcept { return images.front().frames.size(); }

  /// Setup, before any stack shares the set: prepares the library's Image
  /// of every module for every region of the floorplan a ControllerStack
  /// on `device` with `regions` regions builds (ModuleLibrary::prepare).
  void prepare(const bits::Device& device, unsigned regions);
};

/// Generates max(1, count) modules of about max(1, module_kb) KB for
/// `device`, module m seeded from `seed`. Throws std::runtime_error if the
/// set is not uniformly sized or the library rejects a module.
[[nodiscard]] ModuleSet make_module_set(const bits::Device& device, unsigned count,
                                        std::size_t module_kb, u64 seed);

/// max(1, regions) windows "r0".. of `frames` frames each, spaced a whole
/// column apart so FDRI auto-increment never walks from one region into
/// the next. Throws std::runtime_error if a window does not fit.
[[nodiscard]] region::Floorplan make_floorplan(const bits::Device& device, unsigned regions,
                                               std::size_t frames);

struct StackConfig {
  unsigned regions = 1;
  bool cache = true;
  bool trace = false;
  /// Journal every transaction into an in-memory WAL with this policy
  /// (nullopt = no WAL).
  std::optional<WalPolicy> wal;
  /// Plan of the chaos injector; it stays unarmed until arm_chaos().
  fault::FaultPlan chaos;
};

struct ControllerStack {
  /// `modules` must outlive the stack. Throws std::runtime_error if the
  /// floorplan cannot be built.
  ControllerStack(const ModuleSet& modules, const StackConfig& config);

  ControllerStack(const ControllerStack&) = delete;
  ControllerStack& operator=(const ControllerStack&) = delete;

  /// Arms the chaos injector on the controller and its ICAP port.
  void arm_chaos() { chaos.arm(system.uparc(), system.icap()); }

  /// Cold restart onto this (fresh) stack: copies every region window of
  /// `dead`'s config plane onto this fabric — a controller restart loses
  /// only controller memory — then replays `dead`'s WAL through
  /// RecoveryCoordinator. This stack's WAL, if any, continues the dead
  /// log's seq chain and starts with a compacting checkpoint.
  [[nodiscard]] RecoveryReport recover_from(const ControllerStack& dead);

  const ModuleSet& modules;
  core::System system;
  MemWalStorage wal_store;
  std::optional<Wal> wal;
  TxnManager txn;
  region::RegionManager manager;
  fault::FaultInjector chaos;
};

}  // namespace uparc::txn
