#include "txn/stack.hpp"

#include <stdexcept>

namespace uparc::txn {
namespace {

core::SystemConfig system_config(const StackConfig& config) {
  core::SystemConfig sys_cfg;
  sys_cfg.trace = config.trace;
  sys_cfg.with_cache = config.cache;
  return sys_cfg;
}

}  // namespace

fault::FaultPlan chaos_plan(u64 seed, double scale) {
  fault::FaultPlan plan;
  plan.seed = seed;
  if (scale <= 0.0) return plan;
  plan.arm(fault::FaultSite::kBramRead, {.rate = 1e-4 * scale});
  plan.arm(fault::FaultSite::kDecompInput, {.rate = 1e-4 * scale});
  plan.arm(fault::FaultSite::kPreloadTruncate, {.rate = 0.01 * scale, .param = 0.5});
  plan.arm(fault::FaultSite::kDcmLockFail, {.rate = 0.05 * scale});
  plan.arm(fault::FaultSite::kIcapCorrupt, {.rate = 2e-4 * scale});
  plan.arm(fault::FaultSite::kIcapAbort, {.rate = 5e-5 * scale});
  return plan;
}

ModuleSet make_module_set(const bits::Device& device, unsigned count, std::size_t module_kb,
                          u64 seed) {
  ModuleSet set;
  for (unsigned m = 0; m < std::max(1u, count); ++m) {
    bits::GeneratorConfig gen_cfg;
    gen_cfg.device = device;
    gen_cfg.target_body_bytes = std::max<std::size_t>(1, module_kb) * 1024;
    gen_cfg.seed = seed * 1000 + m + 1;
    gen_cfg.design_name = "m" + std::to_string(m);
    set.images.push_back(bits::Generator(gen_cfg).generate());
    if (set.images.back().frames.size() != set.frames()) {
      throw std::runtime_error("module set is not uniformly sized");
    }
    if (Status st = set.library.add_module(gen_cfg.design_name, set.images.back()); !st.ok()) {
      throw std::runtime_error("add_module: " + st.error().message);
    }
  }
  return set;
}

void ModuleSet::prepare(const bits::Device& device, unsigned regions) {
  library.prepare(make_floorplan(device, regions, frames()));
}

region::Floorplan make_floorplan(const bits::Device& device, unsigned regions,
                                 std::size_t frames) {
  region::Floorplan floorplan(device);
  const u32 column_stride = static_cast<u32>(frames / 128 + 1);
  for (unsigned r = 0; r < std::max(1u, regions); ++r) {
    region::RegionGeometry geom;
    geom.origin = bits::FrameAddress{0, 0, 0, 1 + r * column_stride, 0};
    geom.frame_count = static_cast<u32>(frames);
    if (Status st = floorplan.add_region("r" + std::to_string(r), geom); !st.ok()) {
      throw std::runtime_error("add_region: " + st.error().message);
    }
  }
  return floorplan;
}

ControllerStack::ControllerStack(const ModuleSet& module_set, const StackConfig& config)
    : modules(module_set),
      system(system_config(config)),
      txn(system.sim(), "txn", system.uparc(), system.icap(), system.rail()),
      manager(system.sim(), "region_mgr",
              make_floorplan(system.uparc().config().device, config.regions,
                             module_set.frames()),
              module_set.library, system.uparc(), system.plane()),
      chaos(system.sim(), "chaos", config.chaos) {
  if (config.wal) {
    wal.emplace(system.sim(), "wal", wal_store, *config.wal);
    txn.set_wal(&*wal);
  }
  manager.set_transaction_manager(&txn);
}

RecoveryReport ControllerStack::recover_from(const ControllerStack& dead) {
  for (const region::Region& r : dead.manager.floorplan().regions()) {
    for (const bits::FrameAddress& addr : r.geometry.frames()) {
      if (const Words* frame = dead.system.plane().read_frame(addr)) {
        system.plane().write_frame(addr, *frame);
      }
    }
  }
  RecoveryCoordinator coordinator(system, txn);
  return coordinator.recover(
      dead.wal_store.read_all(),
      RecoveryCoordinator::library_resolver(modules.library, manager.floorplan()),
      wal ? &*wal : nullptr);
}

}  // namespace uparc::txn
