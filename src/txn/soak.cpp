#include "txn/soak.hpp"

#include <optional>
#include <sstream>

#include "common/prng.hpp"
#include "txn/stack.hpp"

namespace uparc::txn {

std::string SoakReport::summary() const {
  std::ostringstream out;
  out << "chaos soak: " << transactions << " transactions\n"
      << "  commits " << commits << "  rollbacks(last-good " << rollbacks_last_good
      << ", blank " << rollbacks_blank << ")  failures " << failures << "\n"
      << "  software fallbacks " << software_fallbacks << "  quarantines "
      << quarantines << "  fault fires " << fault_fires << "\n"
      << "  cache hits " << cache_hits << "  poisoned rejects "
      << cache_poisoned_rejects << "\n"
      << "  sim time " << sim_ms << " ms  energy " << energy_uj << " uJ\n"
      << "  invariants: "
      << (ok() ? "OK (0 violations)"
               : ("VIOLATED (" + std::to_string(violations.size()) + ")"))
      << "\n";
  for (const SoakViolation& v : violations) {
    out << "    txn " << v.txn << ": " << v.what << "\n";
  }
  return out.str();
}

SoakReport run_soak(const SoakConfig& config) {
  SoakReport report;
  auto violate = [&](u64 at, std::string what) {
    report.violations.push_back({at, std::move(what)});
  };

  ModuleSet modules;
  std::unique_ptr<ControllerStack> stack;
  try {
    modules = make_module_set(core::UparcConfig{}.device, config.modules, config.module_kb,
                              config.seed);
    modules.prepare(core::UparcConfig{}.device, config.regions);
    StackConfig stack_cfg;
    stack_cfg.regions = config.regions;
    stack_cfg.cache = config.cache;
    stack_cfg.trace = config.trace;
    stack_cfg.chaos = chaos_plan(config.seed ^ kChaosSalt, config.fault_scale);
    stack = std::make_unique<ControllerStack>(modules, stack_cfg);
  } catch (const std::runtime_error& e) {
    violate(0, e.what());
    return report;
  }
  core::System& system = stack->system;
  sim::Simulation& sim = system.sim();
  TxnManager& txn = stack->txn;
  region::RegionManager& manager = stack->manager;
  stack->arm_chaos();
  const unsigned module_count = modules.size();

  Prng workload(config.seed ^ 0x50A4ULL);
  std::map<std::string, std::string> shadow_occupant;
  TimePs last_now{};
  double last_energy = 0.0;

  auto check_all_regions = [&](u64 at) {
    for (const region::Region& r : manager.floorplan().regions()) {
      if (!txn.region_consistent(r.name, system.plane())) {
        violate(at, "region " + r.name +
                        " inconsistent: plane matches neither last-good nor blank");
      }
    }
  };

  for (unsigned i = 1; i <= config.transactions; ++i) {
    const unsigned module_index = static_cast<unsigned>(workload.below(module_count));
    const std::string module = "m" + std::to_string(module_index);
    std::optional<region::LoadResult> got;
    const TimePs dispatched_at = sim.now();
    manager.load_any(module, [&](const region::LoadResult& r) { got = r; });
    try {
      sim.run();
    } catch (const std::exception& e) {
      // An escaping kernel exception (e.g. the event budget) is itself an
      // invariant violation: a transaction must terminate, not livelock.
      violate(i, std::string("simulation aborted mid-transaction (") + e.what() +
                     ") loading " + module + ", dispatched at t=" +
                     std::to_string(dispatched_at.ps()) + " ps");
      break;
    }
    ++report.transactions;

    if (!got) {
      violate(i, "load never completed: simulation drained mid-transaction");
      break;
    }
    const region::LoadResult& r = *got;
    const std::string prev_occupant = shadow_occupant[r.region];

    if (r.software_fallback) {
      // Degraded mode is only legitimate when no region was schedulable.
      for (const region::Region& reg : manager.floorplan().regions()) {
        if (txn.health().schedulable(reg.name)) {
          violate(i, "software fallback while region " + reg.name + " was schedulable");
        }
      }
      continue;
    }

    if (!r.transactional) {
      violate(i, "load bypassed the transaction layer");
      continue;
    }
    const TxnRecord* rec = txn.journal().find(r.txn_id);
    if (rec == nullptr || !rec->terminal()) {
      violate(i, "transaction journal did not reach a terminal state");
    }
    if (!r.placement_schedulable) {
      violate(i, "placement on a quarantined region: " + r.region);
    }

    switch (r.terminal) {
      case TxnPhase::kCommitted:
        ++report.commits;
        if (manager.occupant(r.region) != r.module) {
          violate(i, "commit but occupant is '" + manager.occupant(r.region) + "'");
        }
        shadow_occupant[r.region] = r.module;
        break;
      case TxnPhase::kRolledBackLastGood:
        ++report.rollbacks_last_good;
        if (manager.occupant(r.region) != shadow_occupant[r.region]) {
          violate(i, "last-good rollback but occupant changed to '" +
                         manager.occupant(r.region) + "'");
        }
        break;
      case TxnPhase::kRolledBackBlank:
        ++report.rollbacks_blank;
        if (!manager.occupant(r.region).empty()) {
          violate(i, "blank rollback but occupant is '" + manager.occupant(r.region) + "'");
        }
        shadow_occupant[r.region] = "";
        break;
      default:
        ++report.failures;
        violate(i, "transaction failed terminally (rollback ladder exhausted) on " +
                       r.region);
        shadow_occupant[r.region] = "";
        break;
    }

    // Cache coherence: a transaction that rolled back (or failed terminally)
    // proved its image bad — no tier may still hold it. Content keys
    // exclude frame addresses, so the pre-relocation master image hashes
    // identically to the staged instance. One exception: a last-good
    // rollback of the *same module* restores (and readback-verifies)
    // identical content, so the restage legitimately re-admits it.
    const bool same_as_last_good =
        r.terminal == TxnPhase::kRolledBackLastGood && prev_occupant == r.module;
    if (r.terminal != TxnPhase::kCommitted && !same_as_last_good &&
        system.uparc().cache() != nullptr) {
      if (system.uparc().cache()->contains(cache::key_of(modules.images[module_index]))) {
        violate(i, "rollback left a poisoned cache entry for " + module);
      }
    }

    check_all_regions(i);

    // Accounting must be monotone: simulated time and rail energy only grow.
    if (sim.now() < last_now || r.finished_at < r.started_at) {
      violate(i, "time accounting went backwards");
    }
    last_now = sim.now();
    if (system.rail() != nullptr) {
      const double energy = system.rail()->energy_uj(TimePs{}, sim.now());
      if (energy + 1e-9 < last_energy) {
        violate(i, "rail energy accounting went backwards");
      }
      last_energy = energy;
    }
  }

  if (!txn.journal().all_terminal()) {
    violate(0, "journal left " + std::to_string(txn.journal().open_count()) +
                   " transactions open");
  }
  check_all_regions(0);

  report.software_fallbacks = static_cast<unsigned>(manager.software_fallbacks());
  report.quarantines =
      static_cast<u64>(system.metrics().counter_value("txn.health.quarantines"));
  report.fault_fires = stack->chaos.total_fires();
  report.cache_hits =
      static_cast<u64>(system.metrics().counter_value("region_mgr.cache_hits"));
  if (system.uparc().cache() != nullptr) {
    report.cache_poisoned_rejects = system.uparc().cache()->poisoned_rejects();
  }
  report.sim_ms = sim.now().ms();
  report.energy_uj = last_energy;
  report.journal_json = txn.journal().render_json();
  report.metrics_json = system.metrics().render_json();
  report.trace_json = system.trace_json();
  return report;
}

}  // namespace uparc::txn
