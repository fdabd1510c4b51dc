#include "txn/recovery.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace uparc::txn {

namespace {

using GoldenPairs = std::vector<std::pair<bits::FrameAddress, u32>>;

/// Parses a journaled [[packed_far, crc], ...] golden array.
bool parse_golden(const json::Value& frames, GoldenPairs& out) {
  if (!frames.is(json::Type::kArray)) return false;
  out.clear();
  out.reserve(frames.items.size());
  for (const json::Value& pair : frames.items) {
    if (!pair.is(json::Type::kArray) || pair.items.size() != 2) return false;
    out.emplace_back(bits::FrameAddress::unpack(static_cast<u32>(pair.items[0].as_u64())),
                     static_cast<u32>(pair.items[1].as_u64()));
  }
  return true;
}

[[nodiscard]] std::vector<bits::FrameAddress> addresses_of(const GoldenPairs& pairs) {
  std::vector<bits::FrameAddress> out;
  out.reserve(pairs.size());
  for (const auto& [addr, crc] : pairs) out.push_back(addr);
  return out;
}

/// Sorted (linear index, crc) form — content identity for comparisons.
[[nodiscard]] std::vector<std::pair<u32, u32>> entries_of(const GoldenPairs& pairs) {
  std::vector<std::pair<u32, u32>> out;
  out.reserve(pairs.size());
  for (const auto& [addr, crc] : pairs) out.emplace_back(addr.linear_index(), crc);
  std::sort(out.begin(), out.end());
  return out;
}

/// WAL-folded view of one open-or-closed transaction.
struct TxnFold {
  std::string region;
  std::string module;
  GoldenPairs golden;
  bool has_golden = false;
  TxnPhase phase = TxnPhase::kBegun;
};

/// WAL-folded view of one region's durable state.
struct RegionFold {
  std::string module;   ///< last-good module name
  GoldenPairs golden;   ///< last-good golden signature
  bool has_good = false;
  bool pinned = false;
  bool condemned = false;  ///< a transaction reached kFailed here
  std::vector<bits::FrameAddress> window;
  u64 open_txn = 0;  ///< in-flight transaction id, 0 if none
};

}  // namespace

const RegionRecovery* RecoveryReport::find(const std::string& region) const {
  for (const RegionRecovery& r : regions) {
    if (r.region == region) return &r;
  }
  return nullptr;
}

std::string RecoveryReport::render_json() const {
  std::ostringstream os;
  os << "{\"records_scanned\":" << records_scanned
     << ",\"discarded_bytes\":" << discarded_bytes << ",\"tail\":\"" << to_string(tail)
     << "\",\"last_seq\":" << last_seq << ",\"wal_tail_ps\":" << wal_tail_time.ps()
     << ",\"open_txns\":" << open_txns << ",\"started_ps\":" << started.ps()
     << ",\"finished_ps\":" << finished.ps() << ",\"ok\":" << (ok() ? "true" : "false")
     << ",\"regions\":[";
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const RegionRecovery& r = regions[i];
    os << (i == 0 ? "" : ",") << "{\"region\":\"" << obs::json_escape(r.region)
       << "\",\"class\":\"" << to_string(r.klass) << "\",\"module\":\""
       << obs::json_escape(r.module) << "\",\"readback_clean\":"
       << (r.readback_clean ? "true" : "false") << ",\"action\":\"" << to_string(r.action)
       << "\",\"pinned\":" << (r.pinned ? "true" : "false");
    if (r.action == RecoveryAction::kReprogram || r.action == RecoveryAction::kAbortReprogram) {
      os << ",\"reconcile_terminal\":\"" << to_string(r.reconcile_terminal) << "\"";
    }
    if (!r.detail.empty()) os << ",\"detail\":\"" << obs::json_escape(r.detail) << "\"";
    os << "}";
  }
  os << "],\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\"" << obs::json_escape(errors[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

RecoveryCoordinator::RecoveryCoordinator(core::System& system, TxnManager& txn)
    : system_(system),
      sim_(system.sim()),
      txn_(txn),
      readback_(system.sim(), "recovery.readback", system.icap()) {}

RecoveryCoordinator::ImageResolver RecoveryCoordinator::library_resolver(
    const region::ModuleLibrary& library, const region::Floorplan& floorplan) {
  return [&library, &floorplan](const std::string& module, const std::string& region)
             -> Result<std::shared_ptr<const bits::Image>> {
    const region::Region* target = floorplan.find(region);
    if (target == nullptr) {
      return make_error("recovery: unknown region " + region, ErrorCause::kBadInput);
    }
    return library.instantiate(module, floorplan, *target);
  };
}

RecoveryReport RecoveryCoordinator::recover(BytesView wal_bytes,
                                            const ImageResolver& resolver, Wal* new_wal) {
  RecoveryReport report;
  report.started = sim_.now();
  obs::Tracer* tr = sim_.tracer();
  std::size_t span = static_cast<std::size_t>(-1);
  if (tr != nullptr) span = tr->begin("recovery.run", "recovery");

  // ---- 1. scan: decode the surviving log, drop the torn tail -------------
  const WalScan scan = scan_wal(wal_bytes);
  report.records_scanned = scan.records.size();
  report.discarded_bytes = scan.discarded_bytes;
  report.tail = scan.tail;
  report.last_seq = scan.last_seq();
  report.wal_tail_time = scan.last_time();
  if (scan.resync_after_tail) {
    report.errors.push_back("wal corruption mid-log (valid records beyond the tail)");
  }

  // ---- 2. fold: replay records into per-region durable state -------------
  std::map<u64, TxnFold> txns;
  std::map<std::string, RegionFold> regions;
  std::string health_json;
  for (const WalScanRecord& rec : scan.records) {
    auto parsed = json::parse(rec.payload);
    if (!parsed.ok()) {
      report.errors.push_back("seq " + std::to_string(rec.seq) +
                              ": bad payload: " + parsed.error().message);
      continue;
    }
    const json::Value& v = parsed.value();
    switch (rec.type) {
      case WalRecordType::kCheckpoint: {
        txns.clear();
        regions.clear();
        health_json.clear();
        if (const json::Value* regs = v.find("regions"); regs != nullptr) {
          for (const auto& [name, r] : regs->members) {
            RegionFold& rf = regions[name];
            rf.module = r.at("module").as_string();
            if (!parse_golden(r.at("frames"), rf.golden)) {
              report.errors.push_back("seq " + std::to_string(rec.seq) +
                                      ": bad checkpoint golden for " + name);
              continue;
            }
            rf.has_good = true;
            rf.window = addresses_of(rf.golden);
          }
        }
        if (const json::Value* wins = v.find("windows"); wins != nullptr) {
          for (const auto& [name, w] : wins->members) {
            RegionFold& rf = regions[name];
            rf.window.clear();
            for (const json::Value& far : w.items) {
              rf.window.push_back(bits::FrameAddress::unpack(static_cast<u32>(far.as_u64())));
            }
          }
        }
        if (const json::Value* pins = v.find("pins"); pins != nullptr) {
          for (const json::Value& p : pins->items) regions[p.as_string()].pinned = true;
        }
        if (const json::Value* h = v.find("health"); h != nullptr) {
          health_json = json::to_text(*h);
        }
        break;
      }
      case WalRecordType::kTxnBegin: {
        const u64 id = v.at("txn").as_u64();
        TxnFold& t = txns[id];
        t.region = v.at("region").as_string();
        t.module = v.at("module").as_string();
        regions[t.region].open_txn = id;
        break;
      }
      case WalRecordType::kGolden: {
        TxnFold& t = txns[v.at("txn").as_u64()];
        if (!parse_golden(v.at("frames"), t.golden)) {
          report.errors.push_back("seq " + std::to_string(rec.seq) + ": bad golden");
          break;
        }
        t.has_golden = true;
        // The staged image covers the whole window — remember the extent
        // even if the transaction never terminates.
        RegionFold& rf = regions[t.region];
        if (rf.window.empty()) rf.window = addresses_of(t.golden);
        break;
      }
      case WalRecordType::kTxnPhase: {
        const u64 id = v.at("txn").as_u64();
        auto it = txns.find(id);
        if (it == txns.end()) break;  // pre-checkpoint txn; checkpoint has the result
        TxnFold& t = it->second;
        TxnPhase phase{};
        if (!phase_from_string(v.at("phase").as_string(), phase)) {
          report.errors.push_back("seq " + std::to_string(rec.seq) + ": unknown phase");
          break;
        }
        t.phase = phase;
        if (!is_terminal(phase)) break;
        RegionFold& rf = regions[t.region];
        rf.open_txn = 0;
        switch (phase) {
          case TxnPhase::kCommitted:
            rf.module = t.module;
            rf.golden = t.golden;
            rf.has_good = t.has_golden;
            rf.window = addresses_of(t.golden);
            break;
          case TxnPhase::kRolledBackBlank:
            rf.module.clear();
            rf.golden.clear();
            rf.has_good = false;
            rf.pinned = false;
            break;
          case TxnPhase::kFailed:
            rf.condemned = true;
            rf.pinned = false;
            break;
          default:  // kRolledBackLastGood: prior state stands
            break;
        }
        break;
      }
      case WalRecordType::kHealth: {
        if (const json::Value* h = v.find("health"); h != nullptr) {
          health_json = json::to_text(*h);
        }
        break;
      }
      case WalRecordType::kCachePin: {
        regions[v.at("region").as_string()].pinned = true;
        break;
      }
    }
  }
  for (const auto& [id, t] : txns) {
    if (!is_terminal(t.phase)) ++report.open_txns;
  }

  // ---- 3. restore controller state ahead of any fabric work --------------
  // Health first: reconciliation transactions must run under the same
  // quarantine regime the dead controller had (and a permanently condemned
  // region must stay condemned forever).
  if (!health_json.empty()) {
    try {
      txn_.health().restore_json(health_json);
    } catch (const std::exception& e) {
      report.errors.push_back(std::string("health restore: ") + e.what());
    }
  }
  if (new_wal != nullptr) {
    new_wal->set_next_seq(report.last_seq + 1);
    txn_.set_wal(new_wal);
  }

  // ---- 4. classify + reconcile every region, in name order ---------------
  for (auto& [name, rf] : regions) {
    RegionRecovery rr;
    rr.region = name;
    rr.module = rf.module;

    if (rf.condemned) {
      // kFailed fabric: permanently quarantined (health snapshot carries
      // it); never touch it again, just remember the extent.
      rr.klass = RegionClass::kCondemned;
      rr.detail = "rollback budget was exhausted before the crash";
      if (!rf.window.empty()) txn_.restore_window(name, rf.window);
      report.regions.push_back(std::move(rr));
      continue;
    }

    const bool in_flight = rf.open_txn != 0;
    rr.klass = in_flight ? RegionClass::kInFlight
                         : (rf.has_good ? RegionClass::kCommitted : RegionClass::kUntouched);
    if (in_flight) {
      const TxnFold& t = txns[rf.open_txn];
      rr.detail = "aborted txn " + std::to_string(rf.open_txn) + " (" + t.module + ", " +
                  to_string(t.phase) + ")";
    }

    if (rr.klass == RegionClass::kUntouched) {
      if (!rf.window.empty()) txn_.restore_window(name, rf.window);
      report.regions.push_back(std::move(rr));
      continue;
    }

    // Resolve the last-good image from the module store and prove it is the
    // image the WAL journaled (the store could have been retired/updated
    // while we were down).
    std::shared_ptr<const bits::Image> good_image;
    if (rf.has_good) {
      auto resolved = resolver(rf.module, name);
      if (resolved.ok() &&
          resolved.value()->signature().entries() == entries_of(rf.golden)) {
        good_image = std::move(resolved).value();
      } else {
        report.errors.push_back("region " + name + ": last-good module " + rf.module +
                                (resolved.ok() ? " no longer matches the journaled golden"
                                               : " unresolvable: " + resolved.error().message));
      }
    }

    if (good_image != nullptr) {
      // Readback-scan against the *journaled last-good* signature: for a
      // committed region this is the state the WAL promised; for an
      // in-flight abort it is the state we want to return to.
      bool done = false;
      scrub::ReadbackReport scan_report;
      const scrub::GoldenSignature golden(rf.golden);
      readback_.verify_region(golden, [&](const scrub::ReadbackReport& r) {
        scan_report = r;
        done = true;
      });
      sim_.run();
      if (!done) {
        report.errors.push_back("region " + name + ": recovery readback stalled");
        report.regions.push_back(std::move(rr));
        continue;
      }
      rr.readback_clean = scan_report.clean();
      txn_.restore_last_good(name, rf.module, good_image);
      if (rr.readback_clean) {
        // Fabric already holds the promised image — adopt without touching
        // the plane (for in-flight, the forward write never landed).
        rr.action = in_flight ? RecoveryAction::kAbortClean : RecoveryAction::kAdopt;
        if (rf.pinned) {
          system_.uparc().cache_promote(*good_image);
          rr.pinned = true;
        }
      } else {
        // Fabric diverges from the journal (half-programmed forward, or
        // corruption while down): re-enter the PR 4 ladder.
        bool reconciled = false;
        TxnOutcome outcome;
        txn_.recover_region(name, [&](const TxnOutcome& o) {
          outcome = o;
          reconciled = true;
        });
        sim_.run();
        rr.action = in_flight ? RecoveryAction::kAbortReprogram : RecoveryAction::kReprogram;
        if (reconciled) {
          rr.reconcile_terminal = outcome.terminal;
          if (outcome.terminal == TxnPhase::kRolledBackLastGood && rf.pinned) {
            system_.uparc().cache_promote(*good_image);
            rr.pinned = true;
          }
          if (outcome.terminal == TxnPhase::kFailed) {
            report.errors.push_back("region " + name + ": reconciliation failed: " +
                                    outcome.error);
          }
        } else {
          report.errors.push_back("region " + name + ": reconciliation stalled");
        }
      }
      report.regions.push_back(std::move(rr));
      continue;
    }

    // No trustworthy last-good (blank history, or the store let us down):
    // the only safe terminal is blank. A cheap plane inspection decides
    // whether the fabric is already there (a readback scan cannot attest
    // "blank" — never-written frames read back as missing, not as zeros).
    std::vector<bits::FrameAddress> window = rf.window;
    if (window.empty() && in_flight) window = addresses_of(txns[rf.open_txn].golden);
    if (window.empty()) {
      // Goldens are journaled before the first plane write, so a region with
      // no journaled extent was never touched this epoch: a begun-but-unstaged
      // transaction is a presumed abort with nothing to undo.
      rr.action = in_flight ? RecoveryAction::kAbortClean : RecoveryAction::kNone;
      rr.readback_clean = true;
      report.regions.push_back(std::move(rr));
      continue;
    }
    txn_.restore_window(name, window);
    bool blank = true;
    for (const bits::FrameAddress& addr : window) {
      const Words* frame = system_.plane().read_frame(addr);
      if (frame == nullptr) continue;
      for (u32 w : *frame) {
        if (w != 0) {
          blank = false;
          break;
        }
      }
      if (!blank) break;
    }
    if (blank) {
      rr.action = in_flight ? RecoveryAction::kAbortClean : RecoveryAction::kNone;
      rr.readback_clean = true;
      report.regions.push_back(std::move(rr));
      continue;
    }
    bool reconciled = false;
    TxnOutcome outcome;
    txn_.recover_region(name, [&](const TxnOutcome& o) {
      outcome = o;
      reconciled = true;
    });
    sim_.run();
    rr.action = in_flight ? RecoveryAction::kAbortReprogram : RecoveryAction::kReprogram;
    if (reconciled) {
      rr.reconcile_terminal = outcome.terminal;
      if (outcome.terminal == TxnPhase::kFailed) {
        report.errors.push_back("region " + name + ": blank reconciliation failed: " +
                                outcome.error);
      }
    } else {
      report.errors.push_back("region " + name + ": blank reconciliation stalled");
    }
    report.regions.push_back(std::move(rr));
  }

  // ---- 5. seal the new epoch ---------------------------------------------
  // The recovered state becomes the new log's first record, so the next
  // crash replays from here instead of re-walking the old epoch.
  if (new_wal != nullptr) new_wal->checkpoint_now();

  report.finished = sim_.now();
  obs::Registry& m = sim_.metrics();
  m.counter("recovery.runs").add();
  m.counter("recovery.regions").add(static_cast<double>(report.regions.size()));
  for (const RegionRecovery& r : report.regions) {
    m.counter(std::string("recovery.action.") + to_string(r.action)).add();
  }
  m.counter("recovery.errors").add(static_cast<double>(report.errors.size()));
  if (tr != nullptr) {
    tr->arg(span, "regions", static_cast<double>(report.regions.size()));
    tr->arg(span, "errors", static_cast<double>(report.errors.size()));
    tr->end(span);
  }
  return report;
}

}  // namespace uparc::txn
