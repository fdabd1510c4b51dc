// TxnManager — transactional reconfiguration with verified commit and
// rollback (the tentpole of the robustness layer).
//
// Every reconfiguration becomes a journaled transaction with a
// begin/commit/abort protocol over the ICAP config plane:
//
//   begin ── forward (RecoveryManager: watchdog + bounded retries + backoff)
//     │          │ success
//     │          ▼
//     │        verify (scrub readback: per-frame CRC against staged image)
//     │          │ clean                      │ dirty
//     │          ▼                            ▼
//     │      COMMITTED ◄─ golden copy     rollback loop (bounded rounds):
//     │                   retained          re-program last-known-good from
//     │ forward failed                      the retained golden copy; after
//     └──────────────────────────────────►  kBlankAfterRounds rounds (or
//                                           with no prior module) escalate
//                                           to a synthesized safe blank stub
//                                           — every round readback-verified
//            │ verified                              │ budget exhausted
//            ▼                                       ▼
//   ROLLED_BACK_LAST_GOOD / ROLLED_BACK_BLANK      FAILED (permanent
//                                                   region quarantine)
//
// The guarantee RegionManager builds on: a region is only ever observed in
// one of {empty, last-good module, new-good module} — never half-programmed
// — because every terminal state is readback-verified against ground truth.
// Region health feeds the HealthTracker so schedulers can route around
// quarantined fabric.
#pragma once

#include <map>
#include <memory>
#include <set>

#include "manager/recovery.hpp"
#include "obs/flight_recorder.hpp"
#include "scrub/readback.hpp"
#include "txn/health.hpp"
#include "txn/journal.hpp"
#include "txn/wal.hpp"

namespace uparc::txn {

struct TxnPolicy {
  /// Recovery envelope for the forward (new module) attempt.
  manager::RecoveryPolicy forward{};
  /// Recovery envelope for each rollback round (per re-program).
  manager::RecoveryPolicy rollback{};
  HealthPolicy health{};
};

struct TxnOutcome {
  u64 txn_id = 0;
  bool committed = false;
  TxnPhase terminal = TxnPhase::kFailed;
  std::string region;
  std::string module;
  std::string error;              ///< first failure on a non-committed path
  unsigned forward_attempts = 0;  ///< attempts inside the forward recovery run
  unsigned rollback_rounds = 0;
  u64 verify_runs = 0;
  TimePs start{};
  TimePs end{};
  double energy_uj = 0.0;  ///< whole transaction (rail present)
  /// Which bitstream-cache tier served the forward stage (kBypass when the
  /// controller has no cache attached).
  cache::CacheTier stage_cache_tier = cache::CacheTier::kBypass;
  manager::RecoveryOutcome forward;  ///< full forward recovery history
};

using TxnCallback = std::function<void(const TxnOutcome&)>;

/// The golden signature of `image` as WAL records carry it:
/// [[packed_far, crc32], ...] in frame order, from the memoized frame CRCs.
[[nodiscard]] std::string golden_frames_json(const bits::Image& image);

class TxnManager : public sim::Module {
 public:
  /// `rail` may be null (no energy accounting). Owns its own
  /// RecoveryManager and Readback engine over the shared ICAP port.
  TxnManager(sim::Simulation& sim, std::string name, core::Uparc& uparc,
             icap::Icap& port, power::Rail* rail = nullptr, TxnPolicy policy = {});

  /// Runs one transaction: program `image` (which must cover the region's
  /// whole frame window) into `region` as module `module`. The WAL golden
  /// record, the commit verify, last-good, the cache hooks and every
  /// (re)stage read the image's memoized CRCs, signature and lint verdict.
  /// One transaction at a time; throws if busy.
  void execute(const std::string& region, const std::string& module,
               std::shared_ptr<const bits::Image> image, TxnCallback done);
  /// execute() of an Image built from `image` now.
  void execute(const std::string& region, const std::string& module,
               const bits::PartialBitstream& image, TxnCallback done);

  [[nodiscard]] bool busy() const noexcept { return busy_; }
  [[nodiscard]] Journal& journal() noexcept { return journal_; }
  [[nodiscard]] const Journal& journal() const noexcept { return journal_; }
  [[nodiscard]] HealthTracker& health() noexcept { return health_; }
  [[nodiscard]] const HealthTracker& health() const noexcept { return health_; }
  [[nodiscard]] TxnPolicy& policy() noexcept { return policy_; }
  [[nodiscard]] const TxnPolicy& policy() const noexcept { return policy_; }

  /// Attaches a black-box flight recorder: transaction terminals are
  /// recorded under `shard` (stamped with this manager's sim clock), and a
  /// transaction reaching kFailed trips the recorder's post-mortem
  /// trigger. `recorder` is not owned and must outlive the manager.
  void set_flight_recorder(obs::FlightRecorder* recorder, std::string shard) {
    flight_ = recorder;
    flight_shard_ = std::move(shard);
  }

  /// Attaches the durable write-ahead journal: every phase change, commit
  /// golden signature, health delta and cache pin is appended *before* the
  /// corresponding config-plane action proceeds, and segment rotation is
  /// requested at transaction boundaries. `wal` is not owned and must
  /// outlive the manager; it also receives this manager's checkpoint
  /// source. Pass nullptr to detach.
  void set_wal(Wal* wal);
  [[nodiscard]] Wal* wal() noexcept { return wal_; }

  /// Full-state snapshot for WAL checkpoints: every region's last-good
  /// module + golden signature, the cache pins and the health tracker.
  [[nodiscard]] std::string checkpoint_payload() const;

  /// Recovery: re-adopt a region's committed identity without touching the
  /// fabric — the caller (RecoveryCoordinator) has already proven by
  /// readback that the plane holds exactly this image.
  void restore_last_good(const std::string& region, const std::string& module,
                         std::shared_ptr<const bits::Image> image);

  /// Recovery: restore only the region's frame window (aborted or blank
  /// regions), so region_consistent() knows the region's extent.
  void restore_window(const std::string& region,
                      std::vector<bits::FrameAddress> window);

  /// Recovery: presumed-abort reconciliation of a region whose fabric
  /// cannot be trusted. Opens a journaled transaction that re-enters the
  /// rollback ladder directly — restore the retained last-good if present,
  /// else the safe blank stub — with every round readback-verified, exactly
  /// like a live rollback. The health tracker is *not* penalized: the crash
  /// was the controller's fault, not the fabric's. Requires a prior
  /// restore_last_good() or restore_window() for the region.
  void recover_region(const std::string& region, TxnCallback done);

  /// Regions whose committed image is pinned hot in the bitstream cache.
  [[nodiscard]] const std::set<std::string>& pinned_regions() const noexcept {
    return pinned_;
  }

  /// Retained golden image of the region's committed module (null if the
  /// region is blank or was never committed).
  [[nodiscard]] const bits::Image* last_good(const std::string& region) const;
  /// Module name committed with the retained last-good image ("" if none).
  [[nodiscard]] std::string last_good_module(const std::string& region) const;

  /// Ground-truth invariant for the soak harness: the plane window of
  /// `region` matches the retained last-good image, or is blank (all-zero /
  /// never-written frames), or the region was never transacted.
  [[nodiscard]] bool region_consistent(const std::string& region,
                                       const icap::ConfigPlane& plane) const;

  /// Synthesizes the safe empty stub: `frame_count` all-zero frames from
  /// `origin`, as a lint-clean partial bitstream (FAR + one FDRI write +
  /// CRC + DESYNC). Exposed for tests.
  [[nodiscard]] static bits::PartialBitstream make_blank_bitstream(
      const bits::Device& device, bits::FrameAddress origin, std::size_t frame_count);

 private:
  enum class VerifyTarget { kCommit, kLastGood, kBlank };

  /// Opens a transaction for region_/module_ over image_: the outcome
  /// header, the journal record, the txn-begin + golden WAL pair and the
  /// span. A recovery is marked in the WAL and counted and traced apart.
  void open_txn(TxnCallback done, bool recovery);
  void wal_phase(TxnPhase phase, const std::string& note = "");
  void wal_health();
  void start_forward();
  void on_forward(const manager::RecoveryOutcome& o);
  void start_verify(VerifyTarget target, std::shared_ptr<const bits::Image> image);
  void on_verify(VerifyTarget target, const scrub::ReadbackReport& report);
  void rollback_round(std::string reason);
  void commit();
  void finish_rolled_back(VerifyTarget target);
  void fail(std::string why);
  void finish(TxnPhase terminal);

  core::Uparc& uparc_;
  power::Rail* rail_;
  TxnPolicy policy_;
  manager::RecoveryManager recovery_;
  scrub::Readback readback_;
  Journal journal_;
  HealthTracker health_;

  obs::FlightRecorder* flight_ = nullptr;
  std::string flight_shard_;
  Wal* wal_ = nullptr;

  std::map<std::string, std::shared_ptr<const bits::Image>> last_good_;
  std::map<std::string, std::string> last_good_module_;
  std::map<std::string, std::vector<bits::FrameAddress>> windows_;
  std::set<std::string> pinned_;

  // In-flight transaction.
  bool busy_ = false;
  bool recovering_ = false;  ///< current txn is crash reconciliation
  u64 txn_id_ = 0;
  std::string region_;
  std::string module_;
  std::shared_ptr<const bits::Image> image_;
  std::shared_ptr<const bits::Image> blank_;  ///< built lazily, once per transaction
  TxnOutcome out_;
  TxnCallback done_;
  std::shared_ptr<const bits::Image> verifying_;  ///< its signature outlives the verify
  std::size_t txn_span_ = static_cast<std::size_t>(-1);
};

}  // namespace uparc::txn
