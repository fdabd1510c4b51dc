// System — a one-stop testbench: simulation kernel + power rail + config
// plane + ICAP + UPaRC, with blocking helpers that drive the event loop to
// completion. Examples and benches build on this; lower-level code composes
// the pieces directly.
#pragma once

#include <memory>

#include "controllers/bram_hwicap.hpp"
#include "controllers/farm.hpp"
#include "controllers/flashcap.hpp"
#include "controllers/mst_icap.hpp"
#include "controllers/xps_hwicap.hpp"
#include "core/uparc.hpp"
#include "manager/recovery.hpp"
#include "obs/trace.hpp"
#include "power/scope.hpp"
#include "txn/transaction.hpp"

namespace uparc::core {

struct SystemConfig {
  UparcConfig uparc{};
  /// Attaches a bitstream cache (hot BRAM slots + DDR2 staging tier) to the
  /// controller: repeated stages of the same content skip the external-
  /// storage preload. Off by default to keep the seed timing unchanged.
  bool with_cache = false;
  cache::BitstreamCache::Config cache{};
  /// Eviction policy for the cache: "lru" or "energy".
  std::string cache_policy = "lru";
  /// Attaches an obs::Tracer to the kernel: every module on the
  /// reconfiguration path emits spans, and trace_json() exports them as
  /// Chrome trace_event JSON. Off by default — when off, the only cost on
  /// the hot path is one null-pointer load per instrumentation site.
  bool trace = false;
};

class System {
 public:
  explicit System(SystemConfig config = {});

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] power::Rail* rail() noexcept { return rail_.get(); }
  [[nodiscard]] icap::ConfigPlane& plane() noexcept { return *plane_; }
  [[nodiscard]] const icap::ConfigPlane& plane() const noexcept { return *plane_; }
  [[nodiscard]] icap::Icap& icap() noexcept { return *icap_; }
  [[nodiscard]] Uparc& uparc() noexcept { return *uparc_; }
  /// Null unless SystemConfig::with_cache was set.
  [[nodiscard]] cache::BitstreamCache* cache() noexcept { return cache_.get(); }

  /// Null unless SystemConfig::trace was set.
  [[nodiscard]] obs::Tracer* tracer() noexcept { return tracer_.get(); }
  /// The kernel-wide metrics registry (always on).
  [[nodiscard]] obs::Registry& metrics() noexcept { return sim_.metrics(); }

  /// Renders the collected spans as Chrome trace_event JSON (open spans are
  /// closed at the current simulated time first; the power rail's step
  /// history rides along as a "vccint_mw" counter track). Returns "{}" when
  /// tracing is off.
  [[nodiscard]] std::string trace_json();

  /// Stages a bitstream into UPaRC (see Uparc::stage).
  [[nodiscard]] Status stage(const bits::PartialBitstream& bs) { return uparc_->stage(bs); }

  /// Runs a full reconfiguration to completion and returns the result.
  [[nodiscard]] ctrl::ReconfigResult reconfigure_blocking();

  /// Stages + reconfigures under the RecoveryManager (cycle-budget watchdog,
  /// bounded retries) and runs the whole sequence to completion.
  [[nodiscard]] manager::RecoveryOutcome run_recovery_blocking(
      const bits::PartialBitstream& bs, manager::RecoveryPolicy policy = {});

  /// The lazily created RecoveryManager (null until first used).
  [[nodiscard]] manager::RecoveryManager* recovery() noexcept { return recovery_.get(); }

  /// Runs a full journaled transaction (forward + verify + rollback ladder)
  /// to completion through the lazily created TxnManager.
  [[nodiscard]] txn::TxnOutcome run_transaction_blocking(const std::string& region,
                                                         const std::string& module,
                                                         const bits::PartialBitstream& image,
                                                         txn::TxnPolicy policy = {});

  /// The lazily created TxnManager (null until first used).
  [[nodiscard]] txn::TxnManager* transactions() noexcept { return txn_.get(); }

  /// Programs the reconfiguration clock and runs the relock to completion.
  /// Returns the synthesized choice (nullopt if unsynthesizable).
  std::optional<clocking::MdChoice> set_frequency_blocking(Frequency target);

  /// Runs an adaptation plan (program + relock) to completion.
  std::optional<manager::AdaptationPlan> adapt_blocking(manager::FrequencyPolicy policy,
                                                        TimePs deadline);

  /// Runs a decompressor swap to completion.
  [[nodiscard]] ctrl::ReconfigResult swap_decompressor_blocking(compress::CodecId codec);

  /// Constructs a Table III baseline controller sharing this system's ICAP
  /// and rail. `kind` is one of: "xps_hwicap_cf", "xps_hwicap_cached",
  /// "xps_hwicap_unopt", "BRAM_HWICAP", "MST_ICAP", "FaRM", "FlashCAP".
  [[nodiscard]] std::unique_ptr<ctrl::ReconfigController> make_baseline(std::string_view kind);

  /// Stages + reconfigures any controller to completion.
  [[nodiscard]] ctrl::ReconfigResult run_controller_blocking(ctrl::ReconfigController& c,
                                                             const bits::PartialBitstream& bs);

 private:
  SystemConfig config_;
  sim::Simulation sim_;
  std::unique_ptr<power::Rail> rail_;
  std::unique_ptr<icap::ConfigPlane> plane_;
  std::unique_ptr<icap::Icap> icap_;
  std::unique_ptr<manager::MicroBlaze> baseline_mb_;  // shared by xps baselines
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<cache::BitstreamCache> cache_;
  std::unique_ptr<Uparc> uparc_;
  std::unique_ptr<manager::RecoveryManager> recovery_;
  std::unique_ptr<txn::TxnManager> txn_;
};

}  // namespace uparc::core
