#include "txn/transaction.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace uparc::txn {

namespace {

/// Rollback rounds (each one recovery run + readback-verify) before the
/// region is condemned; past kBlankAfterRounds they program the blank stub.
constexpr unsigned kMaxRollbackRounds = 12;
constexpr unsigned kBlankAfterRounds = 4;

}  // namespace

std::string golden_frames_json(const bits::Image& image) {
  const std::vector<bits::Frame>& frames = image.bitstream().frames;
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    os << (i == 0 ? "" : ",") << "[" << frames[i].address.pack() << ","
       << image.frame_crcs()[i] << "]";
  }
  os << "]";
  return os.str();
}

TxnManager::TxnManager(sim::Simulation& sim, std::string name, core::Uparc& uparc,
                       icap::Icap& port, power::Rail* rail, TxnPolicy policy)
    : Module(sim, std::move(name)),
      uparc_(uparc),
      rail_(rail),
      policy_(policy),
      recovery_(sim, this->name() + ".recovery", uparc, rail),
      readback_(sim, this->name() + ".readback", port),
      journal_(sim),
      health_(sim, this->name() + ".health", policy.health) {}

const bits::Image* TxnManager::last_good(const std::string& region) const {
  auto it = last_good_.find(region);
  return it == last_good_.end() ? nullptr : it->second.get();
}

std::string TxnManager::last_good_module(const std::string& region) const {
  auto it = last_good_module_.find(region);
  return it == last_good_module_.end() ? std::string{} : it->second;
}

void TxnManager::set_wal(Wal* wal) {
  wal_ = wal;
  if (wal_ != nullptr) {
    wal_->set_checkpoint_source([this] { return checkpoint_payload(); });
  }
}

std::string TxnManager::checkpoint_payload() const {
  std::ostringstream os;
  os << "{\"now_ps\":" << sim_.now().ps() << ",\"regions\":{";
  bool first = true;
  for (const auto& [region, image] : last_good_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json_escape(region) << "\":{\"module\":\""
       << obs::json_escape(last_good_module(region)) << "\",\"frames\":"
       << golden_frames_json(*image) << "}";
  }
  os << "},\"windows\":{";
  first = true;
  for (const auto& [region, window] : windows_) {
    if (last_good_.count(region) != 0) continue;  // frames already carry it
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json_escape(region) << "\":[";
    for (std::size_t i = 0; i < window.size(); ++i) {
      os << (i == 0 ? "" : ",") << window[i].pack();
    }
    os << "]";
  }
  os << "},\"pins\":[";
  first = true;
  for (const std::string& region : pinned_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json_escape(region) << "\"";
  }
  os << "],\"health\":" << health_.to_json() << "}";
  return os.str();
}

void TxnManager::wal_phase(TxnPhase phase, const std::string& note) {
  if (wal_ == nullptr) return;
  std::ostringstream os;
  os << "{\"txn\":" << txn_id_ << ",\"phase\":\"" << to_string(phase) << "\"";
  if (!note.empty()) os << ",\"note\":\"" << obs::json_escape(note) << "\"";
  os << "}";
  wal_->append(WalRecordType::kTxnPhase, os.str());
}

void TxnManager::wal_health() {
  if (wal_ == nullptr) return;
  wal_->append(WalRecordType::kHealth, "{\"health\":" + health_.to_json() + "}");
}

void TxnManager::restore_last_good(const std::string& region, const std::string& module,
                                   std::shared_ptr<const bits::Image> image) {
  if (busy_) throw std::logic_error("TxnManager: restore_last_good while busy");
  windows_[region] = image->signature().addresses();
  last_good_[region] = std::move(image);
  last_good_module_[region] = module;
}

void TxnManager::restore_window(const std::string& region,
                                std::vector<bits::FrameAddress> window) {
  if (busy_) throw std::logic_error("TxnManager: restore_window while busy");
  windows_[region] = std::move(window);
}

void TxnManager::recover_region(const std::string& region, TxnCallback done) {
  if (busy_) throw std::logic_error("TxnManager: recover_region while busy");
  auto win = windows_.find(region);
  if (win == windows_.end() || win->second.empty()) {
    throw std::logic_error("TxnManager: recover_region without a restored window: " +
                           region);
  }
  busy_ = true;
  recovering_ = true;
  region_ = region;
  auto good = last_good_.find(region);
  module_ = good != last_good_.end() ? last_good_module(region) : "<recovery-blank>";
  if (good != last_good_.end()) {
    image_ = good->second;
    blank_.reset();
  } else {
    // No retained module: the ladder goes straight to the safe blank. Seed
    // image_ with it too — rollback_round sizes the blank from image_.
    blank_ = bits::Image::build(make_blank_bitstream(
        uparc_.config().device, win->second.front(), win->second.size()));
    image_ = blank_;
  }
  open_txn(std::move(done), /*recovery=*/true);
  rollback_round("crash recovery: presumed abort");
}

void TxnManager::open_txn(TxnCallback done, bool recovery) {
  done_ = std::move(done);
  out_ = TxnOutcome{};
  out_.region = region_;
  out_.module = module_;
  out_.start = sim_.now();
  txn_id_ = journal_.begin(region_, module_);
  out_.txn_id = txn_id_;

  metrics().counter(name() + (recovery ? ".recoveries" : ".txns")).add();
  if (wal_ != nullptr) {
    // Journal intent and the image's golden signature before any plane
    // action: a crash from here on can always be reconciled by readback
    // against this record.
    std::ostringstream os;
    os << "{\"txn\":" << txn_id_ << ",\"region\":\"" << obs::json_escape(region_)
       << "\",\"module\":\"" << obs::json_escape(module_) << "\""
       << (recovery ? ",\"recovery\":true" : "") << "}";
    wal_->append(WalRecordType::kTxnBegin, os.str());
    std::ostringstream gs;
    gs << "{\"txn\":" << txn_id_ << ",\"region\":\"" << obs::json_escape(region_)
       << "\",\"module\":\"" << obs::json_escape(module_)
       << "\",\"frames\":" << golden_frames_json(*image_) << "}";
    wal_->append(WalRecordType::kGolden, gs.str());
  }
  if (obs::Tracer* tr = tracer()) {
    txn_span_ = tr->begin(recovery ? "txn.recover" : "txn.run", "txn");
    tr->arg(txn_span_, "region", region_);
    tr->arg(txn_span_, "module", module_);
  }
}

bits::PartialBitstream TxnManager::make_blank_bitstream(const bits::Device& device,
                                                        bits::FrameAddress origin,
                                                        std::size_t frame_count) {
  bits::PacketWriter pw;
  pw.prologue();
  bits::ConfigCrc crc;
  auto tracked = [&](bits::ConfigReg reg, u32 value) {
    pw.write_reg(reg, value);
    crc.write(reg, value);
  };
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kRcrc));
  crc.reset();
  tracked(bits::ConfigReg::kIdcode, device.idcode);
  tracked(bits::ConfigReg::kFar, origin.pack());
  tracked(bits::ConfigReg::kCmd, static_cast<u32>(bits::Command::kWcfg));

  const Words payload(frame_count * device.frame_words, 0);
  const std::size_t fdri_offset = pw.words().size() + 2;
  pw.write_fdri(payload);
  crc.write(bits::ConfigReg::kFdri, payload);
  pw.write_crc(crc.value());
  pw.command(bits::Command::kDesync);
  pw.noop(1);

  bits::PartialBitstream out;
  out.body = pw.take();
  out.fdri_offset = fdri_offset;
  out.fdri_words = payload.size();
  out.frames = bits::split_frames(device, origin, payload);
  out.header.design_name = "safe_blank";
  out.header.part_name = std::string(device.name);
  out.header.body_bytes = static_cast<u32>(out.body.size() * 4);
  return out;
}

void TxnManager::execute(const std::string& region, const std::string& module,
                         const bits::PartialBitstream& image, TxnCallback done) {
  execute(region, module, bits::Image::build(image), std::move(done));
}

void TxnManager::execute(const std::string& region, const std::string& module,
                         std::shared_ptr<const bits::Image> image, TxnCallback done) {
  if (busy_) throw std::logic_error("TxnManager: execute while busy: " + name());
  if (image->bitstream().frames.empty()) {
    throw std::invalid_argument("TxnManager: image has no ground-truth frames");
  }
  busy_ = true;
  region_ = region;
  module_ = module;
  image_ = std::move(image);
  blank_.reset();
  // The image covers the whole region window; remember it so a later blank
  // rollback (and the consistency invariant) knows the region's extent.
  windows_[region_] = image_->signature().addresses();
  open_txn(std::move(done), /*recovery=*/false);
  start_forward();
}

void TxnManager::start_forward() {
  journal_.advance(txn_id_, TxnPhase::kForward);
  wal_phase(TxnPhase::kForward);
  recovery_.policy() = policy_.forward;
  recovery_.run(image_, [this](const manager::RecoveryOutcome& o) { on_forward(o); });
}

void TxnManager::on_forward(const manager::RecoveryOutcome& o) {
  out_.forward = o;
  out_.forward_attempts = o.attempts;
  out_.stage_cache_tier = uparc_.last_stage_tier();
  if (!o.success) {
    out_.error = "forward failed: " + o.final_result.error;
    rollback_round(out_.error);
    return;
  }
  start_verify(VerifyTarget::kCommit, image_);
}

void TxnManager::start_verify(VerifyTarget target, std::shared_ptr<const bits::Image> image) {
  journal_.advance(txn_id_, TxnPhase::kVerify);
  wal_phase(TxnPhase::kVerify);
  ++out_.verify_runs;
  metrics().counter(name() + ".verifies").add();
  verifying_ = std::move(image);
  readback_.verify_region(verifying_->signature(),
                          [this, target](const scrub::ReadbackReport& report) {
    on_verify(target, report);
  });
}

void TxnManager::on_verify(VerifyTarget target, const scrub::ReadbackReport& report) {
  if (!report.clean()) {
    metrics().counter(name() + ".verify_dirty").add();
    const std::string why = "readback-verify found " +
                            std::to_string(report.mismatches.size()) +
                            " mismatched frames";
    if (target == VerifyTarget::kCommit && out_.error.empty()) out_.error = why;
    rollback_round(why);
    return;
  }
  if (target == VerifyTarget::kCommit) {
    commit();
    return;
  }
  finish_rolled_back(target);
}

void TxnManager::commit() {
  // The durable commit point: once this record is on media the transaction
  // is committed whatever happens next — recovery replays everything below
  // from the WAL. A crash *during* the append leaves the record torn and
  // the transaction aborts (the caller never saw a commit).
  wal_phase(TxnPhase::kCommitted);
  last_good_[region_] = image_;
  last_good_module_[region_] = module_;
  // A verified commit is the strongest freshness signal the cache can get:
  // admit (if the stage predated the cache) and pin the image hot.
  uparc_.cache_promote(*image_);
  pinned_.insert(region_);
  if (wal_ != nullptr) {
    std::ostringstream os;
    os << "{\"txn\":" << txn_id_ << ",\"region\":\"" << obs::json_escape(region_)
       << "\",\"module\":\"" << obs::json_escape(module_) << "\",\"pinned\":true}";
    wal_->append(WalRecordType::kCachePin, os.str());
  }
  health_.on_commit(region_);
  wal_health();
  out_.committed = true;
  metrics().counter(name() + ".commits").add();
  finish(TxnPhase::kCommitted);
}

void TxnManager::rollback_round(std::string reason) {
  // The image failed to program or verify — whatever copy the cache holds
  // must never serve a later stage. Purge before anything else so even a
  // budget-exhausted failure leaves no poisoned entry behind.
  uparc_.cache_invalidate(*image_);
  if (out_.rollback_rounds >= kMaxRollbackRounds) {
    fail("rollback budget exhausted after " + std::to_string(out_.rollback_rounds) +
         " rounds; last: " + reason);
    return;
  }
  ++out_.rollback_rounds;
  journal_.advance(txn_id_, TxnPhase::kRollback, reason);
  wal_phase(TxnPhase::kRollback, reason);
  metrics().counter(name() + ".rollback_rounds").add();
  if (obs::Tracer* tr = tracer()) {
    tr->instant("txn.rollback_round", "txn");
  }

  // Restore the retained golden copy while we still trust it; past
  // kBlankAfterRounds (or with nothing to restore) escalate to the safe
  // blank stub — smaller, so each round exposes fewer fault opportunities.
  auto good = last_good_.find(region_);
  const bool use_blank =
      good == last_good_.end() || out_.rollback_rounds > kBlankAfterRounds;
  if (use_blank && blank_ == nullptr) {
    const std::vector<bits::Frame>& frames = image_->bitstream().frames;
    blank_ = bits::Image::build(make_blank_bitstream(uparc_.config().device,
                                                     frames.front().address, frames.size()));
  }
  std::shared_ptr<const bits::Image> target = use_blank ? blank_ : good->second;
  recovery_.policy() = policy_.rollback;
  recovery_.run(target, [this, use_blank, target](const manager::RecoveryOutcome& o) {
    if (!o.success) {
      rollback_round("rollback re-program failed: " + o.final_result.error);
      return;
    }
    // Never trust an unverified rollback: the invariant is that a rolled-
    // back region *readback-verifies* as last-good or blank.
    start_verify(use_blank ? VerifyTarget::kBlank : VerifyTarget::kLastGood, target);
  });
}

void TxnManager::finish_rolled_back(VerifyTarget target) {
  const TxnPhase terminal = target == VerifyTarget::kBlank
                                ? TxnPhase::kRolledBackBlank
                                : TxnPhase::kRolledBackLastGood;
  wal_phase(terminal);
  if (!recovering_) {
    // Crash reconciliation re-runs the ladder on a region that did nothing
    // wrong — only live rollbacks count against its health.
    health_.on_rollback(region_);
    wal_health();
  }
  if (target == VerifyTarget::kBlank) {
    // The fabric is verified blank; the old golden copy no longer describes
    // it, so future rollbacks of this region must blank again, not resurrect
    // a module the journal says is gone.
    last_good_.erase(region_);
    last_good_module_.erase(region_);
    pinned_.erase(region_);
    metrics().counter(name() + ".rollbacks_blank").add();
    finish(TxnPhase::kRolledBackBlank);
    return;
  }
  metrics().counter(name() + ".rollbacks_last_good").add();
  finish(TxnPhase::kRolledBackLastGood);
}

void TxnManager::fail(std::string why) {
  if (out_.error.empty()) out_.error = why;
  wal_phase(TxnPhase::kFailed, why);
  health_.on_failure(region_);
  wal_health();
  pinned_.erase(region_);
  metrics().counter(name() + ".failures").add();
  journal_.advance(txn_id_, TxnPhase::kFailed, std::move(why));
  if (flight_ != nullptr) {
    flight_->error(flight_shard_, sim_.now(), "txn", "txn-failed",
                   "region=" + region_ + " module=" + module_ + " why=" + out_.error);
    flight_->trigger(flight_shard_, sim_.now(), "txn-failed");
  }
  finish(TxnPhase::kFailed);
}

void TxnManager::finish(TxnPhase terminal) {
  if (terminal != TxnPhase::kFailed) {
    journal_.advance(txn_id_, terminal);
  }
  out_.terminal = terminal;
  out_.end = sim_.now();
  if (rail_ != nullptr) out_.energy_uj = rail_->energy_uj(out_.start, out_.end);
  if (flight_ != nullptr && terminal != TxnPhase::kFailed && terminal != TxnPhase::kCommitted) {
    // Rollbacks are notable-but-survivable: recorded for the post-mortem
    // tape without tripping it. (Commits are the steady state — logging
    // them would evict the interesting history from the bounded ring.)
    flight_->warn(flight_shard_, sim_.now(), "txn", std::string("txn-") + to_string(terminal),
                  "region=" + region_ + " module=" + module_ +
                      " rounds=" + std::to_string(out_.rollback_rounds));
  }
  if (obs::Tracer* tr = tracer()) {
    tr->arg(txn_span_, "terminal", to_string(terminal));
    tr->arg(txn_span_, "rollback_rounds", static_cast<double>(out_.rollback_rounds));
    tr->end(txn_span_);
  }
  verifying_.reset();
  busy_ = false;
  recovering_ = false;
  // Transaction boundary: the only safe moment to rotate the WAL segment
  // (compaction must never orphan an open transaction's records).
  if (wal_ != nullptr) wal_->maybe_checkpoint();
  auto done = std::move(done_);
  done_ = nullptr;
  if (done) done(out_);
}

bool TxnManager::region_consistent(const std::string& region,
                                   const icap::ConfigPlane& plane) const {
  auto good = last_good_.find(region);
  if (good != last_good_.end()) return plane.contains(good->second->bitstream().frames);
  auto window = windows_.find(region);
  if (window == windows_.end()) return true;  // never transacted
  for (const bits::FrameAddress& addr : window->second) {
    const Words* frame = plane.read_frame(addr);
    if (frame == nullptr) continue;  // never written reads back as zeros
    for (u32 w : *frame) {
      if (w != 0) return false;
    }
  }
  return true;
}

}  // namespace uparc::txn
