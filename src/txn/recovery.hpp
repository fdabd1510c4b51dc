// Cold-start recovery: rebuild a controller's transactional state from the
// surviving WAL and reconcile the fabric against it.
//
// The controller died; a fresh TxnManager boots over the *same* config
// plane (the fabric keeps its frames across a controller restart) with only
// the WAL to say what was going on. Recovery proceeds in four steps:
//
//   1. scan    — decode the log, discard the torn/corrupt tail (a record
//                that never became fully durable never happened: the
//                config-plane action it would have covered never ran);
//   2. fold    — replay records from the last checkpoint forward into
//                per-region state: last-good module + golden signature,
//                open transactions with their staged goldens, health
//                snapshot, cache pins;
//   3. classify— each region is committed (terminal in the WAL), in-flight
//                (begun, no terminal — presumed abort), condemned (kFailed:
//                permanently quarantined fabric), or untouched;
//   4. reconcile — committed regions are readback-scanned against the
//                journaled golden: a clean scan re-adopts the mapping
//                without touching the fabric, a dirty one re-enters the
//                PR 4 rollback ladder (TxnManager::recover_region). In-
//                flight regions abort: scan against the *prior* golden,
//                adopt if untouched, ladder back to last-good/safe-blank
//                otherwise. Health, pins and the quarantine clocks are
//                restored first, so reconciliation runs under the same
//                scheduling constraints the dead controller had.
//
// The report is deterministic (byte-identical across identical runs) and is
// the artifact the crash determinism gate diffs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "region/module_library.hpp"
#include "txn/transaction.hpp"
#include "txn/wal.hpp"

namespace uparc::txn {

enum class RegionClass {
  kUntouched,  ///< no surviving record touches the region's fabric
  kCommitted,  ///< last record is a committed terminal
  kInFlight,   ///< open transaction at the tail: presumed abort
  kCondemned,  ///< kFailed in the WAL: permanent quarantine, fabric untrusted
};

[[nodiscard]] constexpr const char* to_string(RegionClass c) {
  switch (c) {
    case RegionClass::kUntouched: return "untouched";
    case RegionClass::kCommitted: return "committed";
    case RegionClass::kInFlight: return "in-flight";
    case RegionClass::kCondemned: return "condemned";
  }
  return "unknown";
}

enum class RecoveryAction {
  kNone,            ///< nothing to do (untouched / condemned)
  kAdopt,           ///< readback clean: mapping restored, fabric untouched
  kReprogram,       ///< committed golden dirty: ladder re-programmed it
  kAbortClean,      ///< in-flight aborted; fabric was still prior/blank
  kAbortReprogram,  ///< in-flight aborted; ladder rolled the fabric back
};

[[nodiscard]] constexpr const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kNone: return "none";
    case RecoveryAction::kAdopt: return "adopt";
    case RecoveryAction::kReprogram: return "reprogram";
    case RecoveryAction::kAbortClean: return "abort-clean";
    case RecoveryAction::kAbortReprogram: return "abort-reprogram";
  }
  return "unknown";
}

/// Per-region recovery verdict.
struct RegionRecovery {
  std::string region;
  RegionClass klass = RegionClass::kUntouched;
  std::string module;           ///< restored last-good module ("" if none)
  bool readback_clean = false;  ///< scan matched the journaled golden
  RecoveryAction action = RecoveryAction::kNone;
  /// Terminal of the reconciliation transaction, when one ran.
  TxnPhase reconcile_terminal = TxnPhase::kBegun;
  bool pinned = false;  ///< cache pin re-applied
  std::string detail;
};

struct RecoveryReport {
  u64 records_scanned = 0;
  u64 discarded_bytes = 0;  ///< torn/corrupt tail dropped by the scan
  WalTailState tail = WalTailState::kClean;
  u64 last_seq = 0;
  TimePs wal_tail_time{};  ///< clock of the last durable record
  u64 open_txns = 0;       ///< in-flight at the crash
  TimePs started{};
  TimePs finished{};
  std::vector<RegionRecovery> regions;  ///< sorted by region name
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  [[nodiscard]] const RegionRecovery* find(const std::string& region) const;
  /// Deterministic artifact for the crash determinism gate.
  [[nodiscard]] std::string render_json() const;
};

class RecoveryCoordinator {
 public:
  /// Resolves a journaled module name to its relocated image for `region`
  /// (normally ModuleLibrary::instantiate over the floorplan).
  using ImageResolver = std::function<Result<std::shared_ptr<const bits::Image>>(
      const std::string& module, const std::string& region)>;

  /// `system` is the freshly booted controller stack holding the surviving
  /// config plane; `txn` must be its TxnManager, with no prior
  /// transactions. Owns its own readback engine over the system's ICAP for
  /// the reconciliation scans.
  RecoveryCoordinator(core::System& system, TxnManager& txn);

  /// Builds an ImageResolver over a module library + floorplan.
  [[nodiscard]] static ImageResolver library_resolver(const region::ModuleLibrary& library,
                                                      const region::Floorplan& floorplan);

  /// Runs cold-start recovery to completion (drives the simulation for the
  /// readback scans and ladder re-programs). `new_wal`, when given, is
  /// attached to the TxnManager, continues the seq chain and receives a
  /// fresh compacting checkpoint as its first record.
  RecoveryReport recover(BytesView wal_bytes, const ImageResolver& resolver,
                         Wal* new_wal = nullptr);

 private:
  core::System& system_;
  sim::Simulation& sim_;
  TxnManager& txn_;
  scrub::Readback readback_;
};

}  // namespace uparc::txn
