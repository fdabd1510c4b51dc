// Dynamic replay verifier (rule det.replay.divergence).
//
// The static passes (isolation_lint, source_lint) can only argue that the
// tree *looks* deterministic; this layer checks it: run a seeded scenario
// twice in one process and byte-diff every artifact the run produces —
// transaction journal, metrics report, event trace, serve health snapshot.
// Any divergence means hidden state leaked between runs (a mutable global,
// an address-ordered container, wall-clock time) and is reported with the
// first diverging byte, its line, and the nearest preceding JSON key so the
// offender is nameable.
//
// `uparc_cli verify-determinism` drives this across seeds; CI runs it as a
// required job (see .github/workflows/ci.yml `determinism`).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "serve/soak.hpp"
#include "txn/crash_soak.hpp"
#include "txn/soak.hpp"

namespace uparc::analysis {

/// Outcome of one scenario replayed twice under a fixed seed.
struct ReplayResult {
  std::string scenario;  ///< "serve" or "soak"
  u64 seed = 0;
  std::vector<std::string> artifacts;  ///< artifact names compared
  Report report;                       ///< det.replay.divergence findings

  [[nodiscard]] bool identical() const noexcept { return report.empty(); }
  /// "serve seed 7: 3 artifacts byte-identical" or the first divergence.
  [[nodiscard]] std::string summary() const;
};

/// Byte-diffs two runs of artifact `name`; on mismatch appends one
/// det.replay.divergence error locating the first diverging byte (line
/// within the artifact, nearest preceding JSON key, both excerpts).
void diff_artifact(std::string_view name, std::string_view run1,
                   std::string_view run2, Report& report);

/// Runs serve::run_soak(config) twice and diffs metrics/health/summary.
/// Telemetry is forced on (default interval) when the config leaves it off,
/// so the time-series/alert/flight artifacts are always part of the diff.
[[nodiscard]] ReplayResult verify_serve_replay(serve::ServeSoakConfig config);

/// Worker-count invariance check for the sharded parallel executor: runs
/// serve::run_soak(config) with workers=1 as the reference, then with
/// workers=0 (inline) and workers=4, and diffs each against the reference
/// on the same seven artifacts as verify_serve_replay (14 diffs, named
/// "serve-parallel/w<N>/..."). Divergence means thread scheduling or the
/// inline path leaked into simulated results (scenario "serve-parallel").
/// Telemetry is forced on like verify_serve_replay.
[[nodiscard]] ReplayResult verify_parallel_replay(serve::ServeSoakConfig config);

/// Inline-vs-cycle oracle (scenario "burst"): runs each System-level
/// scenario once with inline clock edges and once with one kernel event per
/// edge (Simulation::set_inline_edges(false)), and diffs the Chrome trace,
/// the metrics JSON, the rail steps and the result's duration and energy.
/// Scenarios: 247 KB at 362.5 MHz, the Fig. 7 frequencies, compressed
/// 500 KB, a faulted run_recovery_blocking (BRAM-read, ICAP-abort and DCM
/// lock-loss faults) and a cached transaction load with readback verify.
/// Also checks that kernel events plus inlined edges with inlining on equal
/// the kernel events with it off, that inlining actually happened, and that
/// the uncompressed 247 KB and Fig. 7 streams took burst edges
/// (Simulation::burst_edges) with inlining on and none with it off.
[[nodiscard]] ReplayResult verify_burst_replay(u64 seed);

/// Runs txn::run_soak(config) twice (trace forced on) and diffs
/// journal/metrics/trace/summary.
[[nodiscard]] ReplayResult verify_txn_replay(txn::SoakConfig config);

/// Runs txn::run_crash_soak(config) twice and diffs the reference WAL dump,
/// the per-run sweep log, the last recovery report and the summary —
/// recovery must be bit-for-bit reproducible or crash debugging is
/// guesswork.
[[nodiscard]] ReplayResult verify_crash_replay(txn::CrashSoakConfig config);

}  // namespace uparc::analysis
