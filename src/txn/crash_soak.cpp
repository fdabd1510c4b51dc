#include "txn/crash_soak.hpp"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "common/crc32.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "txn/stack.hpp"

namespace uparc::txn {
namespace {

constexpr u64 kPickSalt = 0x9E3779B97F4AULL;

/// Small WAL segments so the sweep crosses compacting checkpoints too.
constexpr WalPolicy kSweepWal{.segment_records = 48};

/// The crash soak's controller stack: WAL-backed, chaos plan seeded from
/// `chaos_seed` (armed by the caller once the run is wired).
StackConfig sweep_stack(const CrashSoakConfig& cfg, u64 chaos_seed) {
  StackConfig sc;
  sc.regions = cfg.regions;
  sc.wal = kSweepWal;
  sc.chaos = chaos_plan(chaos_seed ^ kChaosSalt, cfg.fault_scale);
  return sc;
}

/// Acked ground truth, carried across the crash into the recovered stack.
struct RunState {
  /// Region -> module the client was *told* is live ("" = blank).
  std::map<std::string, std::string> shadow;
  /// Region -> images a completed rollback proved bad; recovery must never
  /// bring one back.
  std::map<std::string, std::set<std::string>> rolled_back;
  std::set<std::string> condemned;  ///< acked kFailed: fabric written off
  unsigned acked_commits = 0;
};

using Violate = std::function<void(std::string)>;

bool window_blank(const ControllerStack& s, const region::Region& r) {
  for (const bits::FrameAddress& addr : r.geometry.frames()) {
    const Words* frame = s.system.plane().read_frame(addr);
    if (frame == nullptr) continue;
    for (u32 w : *frame) {
      if (w != 0) return false;
    }
  }
  return true;
}

bool plane_matches(const ControllerStack& s, const std::string& module,
                   const std::string& region) {
  const region::Floorplan& floorplan = s.manager.floorplan();
  const region::Region* target = floorplan.find(region);
  if (target == nullptr) return false;
  auto img = s.modules.library.instantiate(module, floorplan, *target);
  return img.ok() && s.system.plane().contains(img.value()->bitstream().frames);
}

/// Drives ops [first, cfg.ops) on `s`, updating `st` from acked outcomes.
/// Returns the index of the op a ControllerCrash interrupted (filling
/// `inflight`/`crash`), or cfg.ops when the workload completed.
unsigned drive_ops(const CrashSoakConfig& cfg, ControllerStack& s,
                   const std::vector<unsigned>& mods, unsigned first, u64 pick_seed,
                   RunState& st, std::pair<std::string, std::string>* inflight,
                   fault::ControllerCrash* crash, const Violate& violate) {
  Prng pick(pick_seed);
  sim::Simulation& sim = s.system.sim();
  const region::Floorplan& floorplan = s.manager.floorplan();
  for (unsigned i = first; i < cfg.ops; ++i) {
    // Health-aware placement, like the RegionManager router: quarantined
    // fabric is skipped; if everything is backing off, let simulated time
    // pass until a quarantine expires.
    std::vector<std::string> eligible;
    for (unsigned waits = 0; waits <= 64; ++waits) {
      eligible.clear();
      for (const region::Region& r : floorplan.regions()) {
        if (s.txn.health().schedulable(r.name)) eligible.push_back(r.name);
      }
      if (!eligible.empty() || waits == 64) break;
      sim.run_until(TimePs(sim.now().ps() + 1'000'000'000));  // +1 ms
    }
    if (eligible.empty()) continue;  // everything permanently quarantined

    const std::string region = eligible[pick.below(eligible.size())];
    const std::string module = "m" + std::to_string(mods[i]);
    const region::Region* target = floorplan.find(region);
    auto img = s.modules.library.instantiate(module, floorplan, *target);
    if (!img.ok()) {
      violate("instantiate " + module + " for " + region + ": " + img.error().message);
      return cfg.ops;
    }
    if (inflight != nullptr) *inflight = {region, module};

    std::optional<TxnOutcome> got;
    try {
      s.txn.execute(region, module, img.value(), [&](const TxnOutcome& o) { got = o; });
      sim.run();
    } catch (const fault::ControllerCrash& c) {
      if (crash == nullptr) {
        violate("unexpected controller crash: " + std::string(c.what()));
        return cfg.ops;
      }
      *crash = c;
      return i;
    } catch (const std::exception& e) {
      violate(std::string("simulation aborted mid-transaction: ") + e.what());
      return cfg.ops;
    }
    if (!got) {
      violate("op " + std::to_string(i) + " never completed");
      return cfg.ops;
    }

    const TxnOutcome& o = *got;
    const std::string prev = st.shadow.count(region) ? st.shadow.at(region) : "";
    switch (o.terminal) {
      case TxnPhase::kCommitted:
        st.shadow[region] = module;
        st.rolled_back[region].erase(module);
        ++st.acked_commits;
        break;
      case TxnPhase::kRolledBackLastGood:
        if (module != prev) st.rolled_back[region].insert(module);
        break;
      case TxnPhase::kRolledBackBlank:
        if (!prev.empty()) st.rolled_back[region].insert(prev);
        st.rolled_back[region].insert(module);
        st.shadow[region] = "";
        break;
      default:
        violate("op " + std::to_string(i) + " failed terminally on " + region + ": " +
                o.error);
        st.condemned.insert(region);
        st.shadow[region] = "";
        break;
    }
  }
  return cfg.ops;
}

/// The PR 4 ground-truth checks plus resurrection, against acked state.
void check_state(const ControllerStack& s, const RunState& st, const Violate& violate) {
  for (const region::Region& r : s.manager.floorplan().regions()) {
    if (st.condemned.count(r.name) != 0) continue;
    if (!s.txn.region_consistent(r.name, s.system.plane())) {
      violate("region " + r.name + " inconsistent: plane matches neither last-good nor blank");
    }
    const std::string want =
        st.shadow.count(r.name) ? st.shadow.at(r.name) : std::string();
    if (want.empty()) {
      if (!window_blank(s, r)) {
        violate("region " + r.name + " should be blank but holds frames");
      }
    } else if (!plane_matches(s, want, r.name)) {
      violate("region " + r.name + ": acked module " + want + " lost");
    }
    if (auto it = st.rolled_back.find(r.name); it != st.rolled_back.end()) {
      for (const std::string& bad : it->second) {
        if (bad == want) continue;
        if (plane_matches(s, bad, r.name)) {
          violate("region " + r.name + ": rolled-back image " + bad + " resurrected");
        }
      }
    }
  }
}

/// Backoff continuation: the discrete health counters must survive the
/// restart exactly (clean tail only — corruption may legally lose the very
/// last mutation). Clocks re-anchor, so remaining_ps is not compared.
void check_health_continuity(const std::string& live_json, const std::string& restored_json,
                             const Violate& violate) {
  auto live = json::parse(live_json);
  auto restored = json::parse(restored_json);
  if (!live.ok() || !restored.ok()) {
    violate("health json unparseable: " +
            (live.ok() ? restored.error().message : live.error().message));
    return;
  }
  const json::Value& lr = live.value().at("regions");
  const json::Value& rr = restored.value().at("regions");
  for (const auto& [name, lv] : lr.members) {
    const json::Value* rv = rr.find(name);
    if (rv == nullptr) {
      violate("health restore dropped region " + name);
      continue;
    }
    for (const char* key : {"consecutive_rollbacks", "quarantine_entries", "permanent"}) {
      const std::string a = json::to_text(lv.at(key));
      const std::string b = json::to_text(rv->at(key));
      if (a != b) {
        violate("health " + name + "." + key + " diverged after restore: live " + a +
                " vs restored " + b);
      }
    }
  }
}

}  // namespace

std::string CrashSoakReport::summary() const {
  std::ostringstream out;
  out << "crash soak: " << reference_records << " reference WAL records, " << runs
      << " crash runs (" << crashes << " fired)\n"
      << "  recoveries ok " << recoveries_ok << "  unacked commits kept " << unacked_commits
      << "\n"
      << "  actions: adopt " << adopted << "  reprogram " << reprogrammed << "  abort-clean "
      << aborts_clean << "  abort-reprogram " << aborts_reprogram << "\n"
      << "  invariants: "
      << (ok() ? "OK (0 violations)"
               : ("VIOLATED (" + std::to_string(violations.size()) + ")"))
      << "\n";
  for (const CrashSoakViolation& v : violations) {
    out << "    seq " << v.crash_seq << " tail=" << to_string(v.corruption) << ": " << v.what
        << "\n";
  }
  return out.str();
}

CrashSoakReport run_crash_soak(const CrashSoakConfig& config) {
  CrashSoakReport report;
  auto violate_ref = [&](std::string what) {
    report.violations.push_back({0, WalCorruption::kNone, std::move(what)});
  };

  ModuleSet modules;
  std::unique_ptr<ControllerStack> ref;
  try {
    modules = make_module_set(core::UparcConfig{}.device, config.modules, config.module_kb,
                              config.seed);
    modules.prepare(core::UparcConfig{}.device, config.regions);
    ref = std::make_unique<ControllerStack>(modules, sweep_stack(config, config.seed));
  } catch (const std::runtime_error& e) {
    violate_ref(e.what());
    return report;
  }

  // The op list (which module each op stages) is fixed up front; the region
  // is picked health-aware at dispatch time from a per-run stream.
  std::vector<unsigned> mods;
  {
    Prng opgen(config.seed ^ 0x0C0FFEE0C0FFEEULL);
    for (unsigned i = 0; i < config.ops; ++i) {
      mods.push_back(static_cast<unsigned>(opgen.below(std::max(1u, config.modules))));
    }
  }

  // ---- reference run: same workload, no crash — discovers the boundaries.
  {
    ref->arm_chaos();
    RunState st;
    const unsigned done = drive_ops(config, *ref, mods, 0, config.seed ^ kPickSalt, st,
                                    nullptr, nullptr, violate_ref);
    if (done != config.ops) violate_ref("reference run did not complete the workload");
    if (!ref->txn.journal().all_terminal()) {
      violate_ref("reference journal left transactions open");
    }
    check_state(*ref, st, violate_ref);
    report.reference_records = ref->wal->records_appended();
    report.reference_wal = ref->wal_store.read_all();
    const WalScan scan = scan_wal(report.reference_wal);
    if (scan.tail != WalTailState::kClean) {
      violate_ref("reference WAL tail not clean: " + scan.tail_error);
    }
  }
  ref.reset();  // frees its 8 MB staging tier: each crash run builds its own stacks
  if (!report.ok() || report.reference_records == 0) return report;

  // ---- the sweep: kill the controller at every chosen boundary.
  std::vector<u64> seqs;
  const u64 stride = std::max(1u, config.crash_stride);
  for (u64 s = 1; s <= report.reference_records; s += stride) seqs.push_back(s);
  if (config.max_crash_points != 0 && seqs.size() > config.max_crash_points) {
    seqs.resize(config.max_crash_points);
  }
  std::vector<WalCorruption> modes{WalCorruption::kNone};
  if (config.sweep_corruptions) {
    modes = {WalCorruption::kNone, WalCorruption::kTornWrite, WalCorruption::kPartialRecord,
             WalCorruption::kBitFlip};
  }

  for (const u64 seq : seqs) {
    for (const WalCorruption corr : modes) {
      ++report.runs;
      auto violate = [&](std::string what) {
        report.violations.push_back({seq, corr, std::move(what)});
      };

      // Phase 1: the doomed controller, bit-for-bit the reference workload,
      // with a black-box recorder that must freeze at the moment of death.
      ControllerStack a(modules, sweep_stack(config, config.seed));
      obs::FlightRecorder flight;
      a.txn.set_flight_recorder(&flight, "txn");
      fault::CrashInjector injector({seq, corr});
      injector.set_flight_recorder(&flight, "txn");
      injector.arm(*a.wal);
      a.arm_chaos();

      RunState st;
      std::pair<std::string, std::string> inflight;
      fault::ControllerCrash crash(0, WalCorruption::kNone, TimePs{});
      const unsigned crashed_op = drive_ops(config, a, mods, 0, config.seed ^ kPickSalt, st,
                                            &inflight, &crash, violate);
      if (!injector.crashed()) {
        violate("crash point was never reached");
        continue;
      }
      ++report.crashes;

      // The tail must look exactly like the injected damage.
      const WalScan scan = scan_wal(a.wal_store.read_all());
      const WalTailState want_tail = corr == WalCorruption::kNone ? WalTailState::kClean
                                     : corr == WalCorruption::kBitFlip
                                         ? WalTailState::kCorrupt
                                         : WalTailState::kTorn;
      if (scan.tail != want_tail) {
        violate("tail state " + std::string(to_string(scan.tail)) + ", expected " +
                to_string(want_tail));
      }
      const u64 want_last = corr == WalCorruption::kNone ? seq : seq - 1;
      if (scan.last_seq() != want_last) {
        violate("surviving seq " + std::to_string(scan.last_seq()) + ", expected " +
                std::to_string(want_last));
      }

      // The black box froze at the moment of death, never behind the log.
      if (!flight.triggered()) {
        violate("flight recorder never froze on the crash");
      } else {
        if (flight.first_trigger_reason() != "controller-crash") {
          violate("flight recorder froze for '" + flight.first_trigger_reason() + "'");
        }
        if (flight.first_trigger_time() != crash.at) {
          violate("frozen flight clock disagrees with the crash clock");
        }
        if (scan.last_time() > flight.first_trigger_time()) {
          violate("WAL tail clock is ahead of the frozen flight recorder");
        }
      }

      // Phase 2: cold start. The fabric keeps its frames; the controller
      // state machine starts from nothing but the log. Its chaos stream,
      // armed in phase 4, is fresh per run.
      const u64 rerun_seed = config.seed ^ (seq * 1000003ULL + static_cast<u64>(corr) * 97ULL);
      ControllerStack b(modules, sweep_stack(config, rerun_seed));
      const RecoveryReport rec = b.recover_from(a);
      report.last_recovery_json = rec.render_json();
      if (rec.ok()) {
        ++report.recoveries_ok;
      } else {
        for (const std::string& e : rec.errors) violate("recovery: " + e);
      }
      for (const RegionRecovery& rr : rec.regions) {
        switch (rr.action) {
          case RecoveryAction::kAdopt: ++report.adopted; break;
          case RecoveryAction::kReprogram: ++report.reprogrammed; break;
          case RecoveryAction::kAbortClean: ++report.aborts_clean; break;
          case RecoveryAction::kAbortReprogram: ++report.aborts_reprogram; break;
          case RecoveryAction::kNone: break;
        }
      }

      // Phase 3: the recovered plane against acked ground truth.
      for (const region::Region& r : b.manager.floorplan().regions()) {
        if (st.condemned.count(r.name) != 0) continue;
        const RegionRecovery* rr = rec.find(r.name);
        if (rr != nullptr && rr->klass == RegionClass::kCondemned) continue;
        if (!b.txn.region_consistent(r.name, b.system.plane())) {
          violate("region " + r.name + " inconsistent after recovery");
        }
        const std::string prev =
            st.shadow.count(r.name) ? st.shadow.at(r.name) : std::string();
        const bool is_crash_region = crashed_op < config.ops && r.name == inflight.first;
        const bool matches_prev =
            prev.empty() ? window_blank(b, r) : plane_matches(b, prev, r.name);
        if (!is_crash_region) {
          if (!matches_prev) {
            violate("region " + r.name + ": acked state (" +
                    (prev.empty() ? std::string("blank") : prev) + ") lost across the crash");
          }
          continue;
        }
        // The crashed transaction may land in exactly three places.
        const bool staged_committed = rr != nullptr &&
                                      rr->klass == RegionClass::kCommitted &&
                                      rr->module == inflight.second;
        const bool matches_staged =
            staged_committed && plane_matches(b, inflight.second, r.name);
        const bool blank_terminal =
            (rr == nullptr || rr->klass == RegionClass::kUntouched) && window_blank(b, r);
        if (matches_staged && !matches_prev) {
          ++report.unacked_commits;
          st.shadow[r.name] = inflight.second;
        } else if (matches_prev) {
          // presumed abort: prior acked state stands
        } else if (blank_terminal) {
          if (!prev.empty()) st.rolled_back[r.name].insert(prev);
          st.rolled_back[r.name].insert(inflight.second);
          st.shadow[r.name] = "";
        } else {
          violate("crashed region " + r.name + " in none of the admissible states (prior '" +
                  prev + "', staged '" + inflight.second + "')");
        }
        if (auto it = st.rolled_back.find(r.name); it != st.rolled_back.end()) {
          const std::string& now_live = st.shadow.count(r.name) ? st.shadow.at(r.name)
                                                                : prev;
          for (const std::string& bad : it->second) {
            if (bad == now_live) continue;
            if (plane_matches(b, bad, r.name)) {
              violate("region " + r.name + ": rolled-back image " + bad +
                      " resurrected by recovery");
            }
          }
        }
      }

      if (corr == WalCorruption::kNone) {
        check_health_continuity(a.txn.health().to_json(), b.txn.health().to_json(), violate);
      }

      // Phase 4: life goes on — the recovered controller serves the rest of
      // the workload under fresh chaos, then full ground-truth checks.
      b.arm_chaos();
      const unsigned rest =
          drive_ops(config, b, mods, crashed_op + 1,
                    config.seed ^ kPickSalt ^ (seq * 31ULL + static_cast<u64>(corr)), st,
                    nullptr, nullptr, violate);
      if (rest != config.ops) violate("post-recovery workload did not complete");
      if (!b.txn.journal().all_terminal()) {
        violate("post-recovery journal left transactions open");
      }
      check_state(b, st, violate);

      std::ostringstream line;
      line << "seq=" << seq << " tail=" << to_string(corr) << " scan=" << to_string(scan.tail)
           << " records=" << scan.records.size() << " regions=[";
      bool first = true;
      for (const RegionRecovery& rr : rec.regions) {
        line << (first ? "" : " ") << rr.region << ":" << to_string(rr.klass) << ":"
             << to_string(rr.action);
        first = false;
      }
      const std::string rec_json = rec.render_json();
      line << "] crc=" << crc32(BytesView(reinterpret_cast<const u8*>(rec_json.data()),
                                          rec_json.size()));
      report.sweep_log += line.str() + "\n";
    }
  }
  return report;
}

}  // namespace uparc::txn
