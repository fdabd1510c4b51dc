// Durable write-ahead journal for the reconfiguration controller.
//
// PR 4 made reconfiguration transactional, but the journal lived only in
// controller memory: a controller crash mid-transaction lost every region's
// last-known-good identity, quarantine history and cache pins — the
// partially-reconfigured limbo the DPR literature warns about. The Wal
// closes that hole: every transaction phase change, commit golden
// signature, health snapshot and cache pin is appended — durably,
// checksummed — *before* the corresponding config-plane action proceeds,
// so a cold restart can always reconstruct what the controller was doing
// (see txn::RecoveryCoordinator).
//
// Record framing (little-endian, append-only):
//
//   u32 magic  'UWL1'            ─┐ resync marker for torn-tail scans
//   u64 seq                       │ monotone, survives compaction
//   u64 t_ps                      │ controller clock at append
//   u32 type                      │ WalRecordType
//   u32 payload_len               │
//   u8  payload[payload_len]      │ compact JSON (self-describing)
//   u32 crc32                    ─┘ over seq..payload
//
// The storage device is MemWalStorage, an on-card flash / NVRAM slice
// (synchronous-durable, with a setup+bandwidth write-latency account).
// Segment rotation: once `segment_records` records accumulate past the last
// checkpoint, the Wal asks its checkpoint source for a full-state snapshot,
// writes it as a kCheckpoint record and compacts — everything before the
// checkpoint is dropped, seq keeps counting. Rotation only happens at
// transaction boundaries (TxnManager calls maybe_checkpoint() when idle) so
// compaction can never orphan an open transaction's records.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "sim/kernel.hpp"

namespace uparc::txn {

enum class WalRecordType : u32 {
  kCheckpoint = 1,  ///< full controller state snapshot (compaction base)
  kTxnBegin = 2,    ///< txn id + region + module
  kGolden = 3,      ///< staged image's per-frame golden signature
  kTxnPhase = 4,    ///< phase change (forward/verify/rollback/terminals)
  kHealth = 5,      ///< HealthTracker snapshot after a health mutation
  kCachePin = 6,    ///< committed image pinned hot in the bitstream cache
};

[[nodiscard]] constexpr const char* to_string(WalRecordType t) {
  switch (t) {
    case WalRecordType::kCheckpoint: return "checkpoint";
    case WalRecordType::kTxnBegin: return "txn-begin";
    case WalRecordType::kGolden: return "golden";
    case WalRecordType::kTxnPhase: return "txn-phase";
    case WalRecordType::kHealth: return "health";
    case WalRecordType::kCachePin: return "cache-pin";
  }
  return "unknown";
}

/// True when `t` names a record type this build understands (a newer or
/// foreign log may carry more; they scan fine and lint as unknown).
[[nodiscard]] constexpr bool known_wal_type(u32 t) {
  return t >= static_cast<u32>(WalRecordType::kCheckpoint) &&
         t <= static_cast<u32>(WalRecordType::kCachePin);
}

/// Tail-record corruption modes the CrashInjector can apply — the ways a
/// real log device loses an in-flight write.
enum class WalCorruption {
  kNone,           ///< clean kill between records
  kTornWrite,      ///< record truncated mid-payload
  kPartialRecord,  ///< only part of the fixed header made it out
  kBitFlip,        ///< full-length record with one flipped payload bit
};

[[nodiscard]] constexpr const char* to_string(WalCorruption c) {
  switch (c) {
    case WalCorruption::kNone: return "none";
    case WalCorruption::kTornWrite: return "torn-write";
    case WalCorruption::kPartialRecord: return "partial-record";
    case WalCorruption::kBitFlip: return "bit-flip";
  }
  return "unknown";
}

/// Abstract append-only log device. truncate/flip_bit/reset exist for the
/// crash injector and compaction; normal operation only appends.
class WalStorage {
 public:
  virtual ~WalStorage() = default;
  virtual void append(BytesView bytes) = 0;
  /// Shrinks the log to `new_size` bytes (tail loss).
  virtual void truncate(std::size_t new_size) = 0;
  /// Flips one bit in place (media corruption).
  virtual void flip_bit(std::size_t byte, unsigned bit) = 0;
  /// Replaces the whole log (compaction).
  virtual void reset(BytesView bytes) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual Bytes read_all() const = 0;
};

/// In-memory "storage device": synchronous-durable, with a simulated write
/// latency account (per-append setup cost + bandwidth-proportional cost).
/// The account is advisory — appends do not block the controller clock —
/// but it sizes the journaling overhead for the bench layer.
class MemWalStorage final : public WalStorage {
 public:
  struct Latency {
    double setup_us = 2.0;     ///< per-append fixed cost (command + sync)
    double mb_per_s = 200.0;   ///< sequential write bandwidth
  };

  MemWalStorage() = default;
  explicit MemWalStorage(Latency latency) : latency_(latency) {}

  void append(BytesView bytes) override;
  void truncate(std::size_t new_size) override;
  void flip_bit(std::size_t byte, unsigned bit) override;
  void reset(BytesView bytes) override;
  [[nodiscard]] std::size_t size() const override { return buf_.size(); }
  [[nodiscard]] Bytes read_all() const override { return buf_; }

  [[nodiscard]] u64 appends() const noexcept { return appends_; }
  /// Accumulated simulated write time across all appends.
  [[nodiscard]] double total_write_us() const noexcept { return total_write_us_; }

 private:
  Latency latency_{};
  Bytes buf_;
  u64 appends_ = 0;
  double total_write_us_ = 0.0;
};

/// One decoded record from a WAL scan.
struct WalScanRecord {
  u64 seq = 0;
  TimePs t{};
  WalRecordType type = WalRecordType::kCheckpoint;
  std::string payload;
  std::size_t offset = 0;  ///< byte offset of the record in the log
  std::size_t bytes = 0;   ///< encoded size including framing
};

enum class WalTailState {
  kClean,    ///< log ends exactly on a record boundary
  kTorn,     ///< trailing bytes too short to be a record (in-flight write)
  kCorrupt,  ///< trailing record fails magic/CRC (torn or flipped media)
};

[[nodiscard]] constexpr const char* to_string(WalTailState s) {
  switch (s) {
    case WalTailState::kClean: return "clean";
    case WalTailState::kTorn: return "torn";
    case WalTailState::kCorrupt: return "corrupt";
  }
  return "unknown";
}

/// Result of scanning a log image: every decodable record plus a
/// classification of how the log ends. Recovery discards everything from
/// `tail_offset` on (the standard torn-tail rule); the lint layer
/// additionally distinguishes a bad tail (expected after a crash) from
/// corruption *followed by* valid records (media damage mid-log).
struct WalScan {
  std::vector<WalScanRecord> records;
  WalTailState tail = WalTailState::kClean;
  std::size_t tail_offset = 0;      ///< first byte not covered by a valid record
  std::size_t discarded_bytes = 0;  ///< bytes from tail_offset to end
  std::string tail_error;           ///< what broke, when tail != kClean
  /// A valid-looking record exists *beyond* the corruption: the damage is
  /// not an in-flight write but a hole in the middle of the log.
  bool resync_after_tail = false;

  [[nodiscard]] u64 last_seq() const { return records.empty() ? 0 : records.back().seq; }
  [[nodiscard]] TimePs last_time() const {
    return records.empty() ? TimePs{} : records.back().t;
  }
};

/// Decodes a log image. Never throws: undecodable content becomes tail
/// state + discarded bytes.
[[nodiscard]] WalScan scan_wal(BytesView bytes);

/// Human-readable dump of a scan, one line per record plus the tail state
/// (also the byte-diffed artifact of the crash determinism gate).
[[nodiscard]] std::string render_wal_text(const WalScan& scan);
/// JSON dump of a scan (CLI `wal --json`).
[[nodiscard]] std::string render_wal_json(const WalScan& scan);

struct WalPolicy {
  /// Records since the last checkpoint that trigger rotation at the next
  /// maybe_checkpoint() call.
  u64 segment_records = 256;
};

class Wal {
 public:
  /// `storage` is not owned and must outlive the Wal.
  Wal(sim::Simulation& sim, std::string name, WalStorage& storage, WalPolicy policy = {});

  /// Encodes and durably appends one record, stamped with the controller
  /// clock; returns its seq. The append hook (crash injection point) runs
  /// after the bytes are durable.
  u64 append(WalRecordType type, std::string payload);

  /// Rotates the segment if it is due and a checkpoint source is attached.
  /// Call only at transaction boundaries — compaction drops every record
  /// before the checkpoint.
  void maybe_checkpoint();
  /// Unconditionally writes a checkpoint record and compacts the log to it.
  void checkpoint_now();

  /// Supplies the full-state snapshot payload for kCheckpoint records
  /// (TxnManager wires this to its last-good/health/pin state).
  void set_checkpoint_source(std::function<std::string()> source) {
    checkpoint_source_ = std::move(source);
  }

  /// Called with the new record's seq and append time after each durable
  /// append — the CrashInjector's kill point.
  void set_append_hook(std::function<void(u64, TimePs)> hook) { hook_ = std::move(hook); }

  /// Damages the most recently appended record in storage (crash injection).
  void corrupt_tail(WalCorruption kind);

  /// Continues an existing log: the next append uses `seq` (recovery sets
  /// last_seq + 1 so the seq chain stays gapless across restarts).
  void set_next_seq(u64 seq) { next_seq_ = seq; }

  [[nodiscard]] u64 next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] u64 records_appended() const noexcept { return records_appended_; }
  [[nodiscard]] u64 records_since_checkpoint() const noexcept {
    return records_since_checkpoint_;
  }
  [[nodiscard]] u64 checkpoints() const noexcept { return checkpoints_; }
  [[nodiscard]] u64 compacted_bytes() const noexcept { return compacted_bytes_; }
  [[nodiscard]] WalStorage& storage() noexcept { return storage_; }
  [[nodiscard]] const WalStorage& storage() const noexcept { return storage_; }
  [[nodiscard]] const WalPolicy& policy() const noexcept { return policy_; }

  /// Encodes one record with the full framing (exposed for tests/tools).
  [[nodiscard]] static Bytes encode_record(u64 seq, TimePs t, WalRecordType type,
                                           std::string_view payload);

 private:
  u64 append_at(WalRecordType type, std::string_view payload, bool run_hook);

  sim::Simulation& sim_;
  std::string name_;
  WalStorage& storage_;
  WalPolicy policy_;
  std::function<std::string()> checkpoint_source_;
  std::function<void(u64, TimePs)> hook_;

  u64 next_seq_ = 1;
  u64 records_appended_ = 0;
  u64 records_since_checkpoint_ = 0;
  u64 checkpoints_ = 0;
  u64 compacted_bytes_ = 0;
  std::size_t last_offset_ = 0;  ///< offset of the most recent record
  std::size_t last_size_ = 0;
};

}  // namespace uparc::txn
