// Transaction journal for the reconfiguration path.
//
// Every System/Uparc reconfiguration routed through the TxnManager is a
// journaled transaction: `begin` opens a record, each phase change appends a
// timestamped event, and the record must reach exactly one terminal phase —
// kCommitted, kRolledBackLastGood, kRolledBackBlank, or kFailed. The soak
// harness's core invariant ("every transaction journal reaches a terminal
// state") is checked directly against this structure, and the journal
// renders as JSON so a failed CI soak can upload it as an artifact.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "sim/kernel.hpp"

namespace uparc::txn {

enum class TxnPhase {
  kBegun,               ///< record opened, nothing attempted yet
  kForward,             ///< forward reconfiguration under recovery
  kVerify,              ///< readback-verify of the programmed frames
  kCommitted,           ///< terminal: new module verified in fabric
  kRollback,            ///< restoring last-good / blanking the region
  kRolledBackLastGood,  ///< terminal: prior module verified back
  kRolledBackBlank,     ///< terminal: region verified blank (safe stub)
  kFailed,              ///< terminal: rollback budget exhausted
};

[[nodiscard]] constexpr const char* to_string(TxnPhase p) {
  switch (p) {
    case TxnPhase::kBegun: return "begun";
    case TxnPhase::kForward: return "forward";
    case TxnPhase::kVerify: return "verify";
    case TxnPhase::kCommitted: return "committed";
    case TxnPhase::kRollback: return "rollback";
    case TxnPhase::kRolledBackLastGood: return "rolled_back_last_good";
    case TxnPhase::kRolledBackBlank: return "rolled_back_blank";
    case TxnPhase::kFailed: return "failed";
  }
  return "unknown";
}

[[nodiscard]] constexpr bool is_terminal(TxnPhase p) {
  return p == TxnPhase::kCommitted || p == TxnPhase::kRolledBackLastGood ||
         p == TxnPhase::kRolledBackBlank || p == TxnPhase::kFailed;
}

/// Inverse of to_string(TxnPhase); false when `name` is no phase.
[[nodiscard]] bool phase_from_string(std::string_view name, TxnPhase& out);

struct TxnEvent {
  TxnPhase phase;
  TimePs at;
  std::string note;
};

struct TxnRecord {
  u64 id = 0;
  std::string region;
  std::string module;
  TxnPhase phase = TxnPhase::kBegun;  ///< most recent phase
  std::vector<TxnEvent> events;
  TimePs opened_at{};
  TimePs closed_at{};  ///< meaningful once terminal

  [[nodiscard]] bool terminal() const { return is_terminal(phase); }
};

class Journal {
 public:
  explicit Journal(sim::Simulation& sim) : sim_(sim) {}

  /// Opens a transaction and returns its id (1-based, monotone).
  u64 begin(std::string region, std::string module);

  /// Appends a phase-change event. Advancing a terminal record throws: a
  /// closed transaction must never mutate (the soak harness relies on it).
  void advance(u64 id, TxnPhase phase, std::string note = "");

  [[nodiscard]] const TxnRecord* find(u64 id) const;
  [[nodiscard]] const std::vector<TxnRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }
  [[nodiscard]] bool all_terminal() const noexcept { return open_ == 0; }

  /// Array of records with full event trails (CI artifact format).
  [[nodiscard]] std::string render_json() const;

 private:
  sim::Simulation& sim_;
  std::vector<TxnRecord> records_;
  std::size_t open_ = 0;
};

/// Parses a Journal::render_json() artifact back into records — the
/// round-trip the recovery tooling and the CI artifact consumers rely on.
/// Throws std::runtime_error on malformed input or unknown phases.
struct ParsedJournal {
  std::vector<TxnRecord> records;
  std::size_t open = 0;
};
[[nodiscard]] ParsedJournal parse_journal_json(const std::string& text);

}  // namespace uparc::txn
