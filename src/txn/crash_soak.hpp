// Crash-restart chaos soak: exhaustively sweep controller deaths across
// every reachable WAL record boundary and prove recovery holds its promises.
//
// One sweep runs a short, fully deterministic reconfiguration workload
// (fault injection included) once without a crash — the *reference* run —
// to discover the WAL record boundaries the workload reaches. Then, for
// every boundary (optionally × every tail-corruption mode), the same
// workload is replayed with a CrashInjector armed at that boundary: the
// txn::ControllerStack is killed mid-flight, a fresh stack cold-starts from
// the surviving fabric + WAL through ControllerStack::recover_from (the
// same restart the serve drill uses), and the remaining workload continues
// on the recovered controller. The WAL rotates every 48 records, so the
// sweep crosses compacting checkpoints too.
//
// After every crash+recovery the harness asserts the crash-consistency
// contract on top of the PR 4 soak invariants:
//   * recovery itself reports no errors, and the scanned tail state matches
//     the injected corruption exactly;
//   * no acked commit is lost: every region the dead controller acked is
//     byte-identical on the recovered plane (blank stays blank);
//   * the crashed transaction lands in an admissible state only: its prior
//     acked state, the staged module (durable-but-unacked commit — the WAL
//     said committed, the client just never heard), or a journaled blank;
//   * no rolled-back image is resurrected by recovery;
//   * every region still satisfies region_consistent();
//   * the restored health tracker continues the dead controller's backoff
//     schedule (exact on a clean tail — every mutation is journaled before
//     the next boundary);
//   * the flight recorder froze at the crash, and the frozen clock is never
//     behind the WAL tail clock.
// Violations are collected, never thrown; the report carries the reference
// WAL dump, the last recovery report and a deterministic per-run sweep log
// as CI artifacts.
#pragma once

#include "fault/crash.hpp"
#include "txn/recovery.hpp"

namespace uparc::txn {

struct CrashSoakConfig {
  u64 seed = 1;
  /// Workload length; small on purpose — the sweep replays it once per
  /// reachable record boundary.
  unsigned ops = 10;
  unsigned regions = 2;
  unsigned modules = 3;
  std::size_t module_kb = 4;
  /// Scales the fabric FaultInjector (same chaos plan as the PR 4 soak), so
  /// the swept WALs contain rollback ladders, not just happy paths.
  double fault_scale = 1.0;
  /// Crash at every `crash_stride`-th record boundary (1 = all of them).
  unsigned crash_stride = 1;
  /// Cap on swept boundaries (0 = every reachable one).
  unsigned max_crash_points = 0;
  /// Sweep all four tail modes (none/torn/partial/bit-flip) per boundary;
  /// false = intact tail only (4× cheaper).
  bool sweep_corruptions = true;
};

struct CrashSoakViolation {
  u64 crash_seq = 0;  ///< WAL boundary of the run (0 = reference run)
  WalCorruption corruption = WalCorruption::kNone;
  std::string what;
};

struct CrashSoakReport {
  u64 reference_records = 0;  ///< WAL boundaries the reference run reached
  unsigned runs = 0;          ///< crash runs executed (excludes reference)
  unsigned crashes = 0;       ///< runs whose injector actually fired
  unsigned recoveries_ok = 0;
  /// Durable-but-unacked commit edge: the WAL said committed, the client
  /// was never told; recovery must keep the commit.
  unsigned unacked_commits = 0;
  unsigned adopted = 0;
  unsigned reprogrammed = 0;
  unsigned aborts_clean = 0;
  unsigned aborts_reprogram = 0;
  std::vector<CrashSoakViolation> violations;

  Bytes reference_wal;             ///< artifact: reference run's final log, raw
  std::string last_recovery_json;  ///< artifact: last crash run's recovery
  /// One deterministic line per crash run (tail state, per-region verdicts,
  /// recovery-report CRC): the determinism gate's diffable artifact.
  std::string sweep_log;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] CrashSoakReport run_crash_soak(const CrashSoakConfig& config);

}  // namespace uparc::txn
