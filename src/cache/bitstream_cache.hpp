// Two-level bitstream cache (ROADMAP "production scale": amortise the
// 50 MB/s external-storage preload path across repeated loads).
//
// Tier layout:
//   L0 "resident"  — the staging window itself (tracked by core::Uparc):
//                    the requested image is already in the bitstream BRAM,
//                    so a re-stage costs only the lookup.
//   L1 "hot"       — a handful of BRAM slots carved next to the staging
//                    window; a hit is a BRAM-to-BRAM burst at one
//                    manager cycle per word (port A never leaves chip).
//   L2 "staging"   — a DDR2 staging tier (own mem::Ddr2 timing model); a
//                    hit pays the real controller burst cycles plus the
//                    BRAM landing copy. The tier fills by snooping the
//                    demand DMA burst, so admission itself is free.
//
// Entries are content-addressed: the key folds the per-frame data CRC32s
// (scrub::GoldenSignature::content_fold; a bits::Image carries the fold
// already) and deliberately excludes frame addresses,
// so one cached image serves every region it can be relocated to — a hit
// at a different origin is rewritten with bits::relocate before serving.
// Compressed containers are location-pinned (the container hides the FAR),
// so their keys carry the origin and the codec id.
//
// Every extraction is CRC-checked against the admitted content; a mismatch
// (fault-injected upset in the staging DRAM, torn slot) invalidates the
// entry and falls back to a miss — the cache can serve stale-fast, never
// wrong. Transactions keep it coherent: commit promotes the image,
// rollback purges it (txn/transaction.cpp).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "bitstream/image.hpp"
#include "bitstream/relocate.hpp"
#include "mem/ddr2.hpp"
#include "sched/energy_policy.hpp"
#include "sim/module.hpp"

namespace uparc::cache {

/// Where a stage request was served from.
enum class CacheTier : u8 {
  kBypass,    ///< no cache attached (or uncacheable payload)
  kMiss,      ///< cache attached, full preload paid
  kResident,  ///< already in the staging window (L0)
  kHot,       ///< hot BRAM slot (L1)
  kStaging,   ///< DDR2 staging tier (L2)
};

[[nodiscard]] std::string_view to_string(CacheTier tier);
[[nodiscard]] inline bool is_hit(CacheTier t) {
  return t == CacheTier::kResident || t == CacheTier::kHot || t == CacheTier::kStaging;
}

/// Content-addressed cache key. Raw relocatable images hash frame *data*
/// only (origin_far = 0); compressed containers and frameless bodies are
/// exact-content entries pinned to their stored location.
struct CacheKey {
  u32 content_crc = 0;  ///< fold of per-frame data CRCs (or body CRC)
  u32 frame_count = 0;
  u32 origin_far = 0;  ///< 0 = relocatable; else pinned pack()ed FAR
  u8 kind = 0;         ///< 0 = raw body; 1 + CodecId for containers

  friend auto operator<=>(const CacheKey&, const CacheKey&) = default;
};

/// Key for a raw (uncompressed) image. Relocatable when ground-truth
/// frames are present; otherwise an exact-content entry.
[[nodiscard]] CacheKey key_of(const bits::PartialBitstream& bs);
/// Key for the compressed container of `bs` under `codec_id` (the raw
/// codec-id byte). Pinned to the image's origin FAR.
[[nodiscard]] CacheKey key_of_compressed(const bits::PartialBitstream& bs, u8 codec_id);
/// The same keys from an Image's memoized content fold (no frame is hashed).
[[nodiscard]] CacheKey key_of(const bits::Image& image);
[[nodiscard]] CacheKey key_of_compressed(const bits::Image& image, u8 codec_id);

/// Per-entry bookkeeping handed to eviction policies.
struct EntryMeta {
  std::size_t bytes = 0;
  u64 hits = 0;
  TimePs admitted{};
  TimePs last_use{};
};

/// Pluggable eviction: lowest score() goes first.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual double score(const EntryMeta& e, TimePs now) const = 0;
};

/// Classic least-recently-used: score is the last-use timestamp.
class LruPolicy final : public EvictionPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "lru"; }
  [[nodiscard]] double score(const EntryMeta& e, TimePs now) const override;
};

/// Energy-weighted: keep the entries whose re-preload burns the most
/// energy (sched::EnergyPolicy::refetch_cost_uj), decayed by recency so a
/// large-but-dead entry eventually yields. Cheap-to-refetch and stale
/// entries are evicted first.
class EnergyWeightedPolicy final : public EvictionPolicy {
 public:
  explicit EnergyWeightedPolicy(sched::EnergyPolicy model = {},
                                TimePs half_life = TimePs::from_ms(50));
  [[nodiscard]] std::string_view name() const override { return "energy"; }
  [[nodiscard]] double score(const EntryMeta& e, TimePs now) const override;

 private:
  sched::EnergyPolicy model_;
  TimePs half_life_;
};

/// "lru" or "energy"; nullptr on unknown names.
[[nodiscard]] std::unique_ptr<EvictionPolicy> make_eviction_policy(std::string_view name);

class BitstreamCache : public sim::Module {
 public:
  struct Config {
    std::size_t hot_slots = 2;             ///< L1 slot count
    std::size_t hot_slot_bytes = 64 * 1024;  ///< L1 slot capacity
    std::size_t staging_bytes = 8 * 1024 * 1024;  ///< L2 DDR2 tier size
  };

  /// What a hit hands back to the controller.
  struct Served {
    CacheTier tier = CacheTier::kMiss;
    u64 copy_cycles = 0;  ///< manager cycles to land the payload (excl. lookup)
    std::size_t exact_bytes = 0;  ///< pre-padding byte length (containers)
    bool relocated = false;
    Words words;                      ///< payload for the BRAM window
    std::vector<bits::Frame> frames;  ///< relocated ground truth (raw entries)
  };

  BitstreamCache(sim::Simulation& sim, std::string name, Config cfg,
                 std::unique_ptr<EvictionPolicy> policy = nullptr);
  BitstreamCache(sim::Simulation& sim, std::string name)
      : BitstreamCache(sim, std::move(name), Config{}) {}

  /// Looks `key` up across both tiers. `want_origin` (may be null) is where
  /// the caller needs the image; relocatable entries stored elsewhere are
  /// rewritten on the way out. Extracted content is CRC-verified — a
  /// poisoned entry is invalidated and reported as a miss.
  [[nodiscard]] std::optional<Served> lookup(const CacheKey& key,
                                             const bits::FrameAddress* want_origin);

  /// Admits `stored` (the exact BRAM payload: raw body words or container
  /// words) into the staging tier, evicting by policy score if needed.
  /// `origin` is where the payload currently targets; `relocatable` only
  /// for raw single-FAR bodies. Admission snoops the demand DMA burst, so
  /// it charges no manager cycles. No-op if already present or if the
  /// payload exceeds the staging tier.
  void admit(const CacheKey& key, WordsView stored, std::size_t exact_bytes,
             bits::FrameAddress origin, bool relocatable);

  /// Ensures `key` sits in a hot slot (txn commit path; also applied on
  /// staging hits). No-op if absent, too large for a slot, or already hot.
  void promote(const CacheKey& key);

  /// Drops `key` from every tier (txn rollback path). Idempotent.
  void invalidate(const CacheKey& key);

  [[nodiscard]] bool contains(const CacheKey& key) const;
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t hot_count() const;
  [[nodiscard]] std::size_t staging_bytes_used() const;
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  [[nodiscard]] const EvictionPolicy& policy() const noexcept { return *policy_; }
  void set_policy(std::unique_ptr<EvictionPolicy> policy);

  [[nodiscard]] u64 hits() const noexcept { return hits_hot_ + hits_staging_; }
  [[nodiscard]] u64 hits_hot() const noexcept { return hits_hot_; }
  [[nodiscard]] u64 hits_staging() const noexcept { return hits_staging_; }
  [[nodiscard]] u64 misses() const noexcept { return misses_; }
  [[nodiscard]] u64 evictions() const noexcept { return evictions_; }
  [[nodiscard]] u64 relocations() const noexcept { return relocations_; }
  [[nodiscard]] u64 poisoned_rejects() const noexcept { return poisoned_rejects_; }
  [[nodiscard]] double hit_rate() const noexcept {
    const u64 total = hits() + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(total);
  }

  /// The staging tier's DRAM — exposed so fault injection can tap its read
  /// path (tests poison entries through it).
  [[nodiscard]] mem::Ddr2& staging_memory() noexcept { return ddr_; }

 private:
  struct Entry {
    EntryMeta meta;
    bits::FrameAddress origin{};  ///< FAR the stored payload targets
    bool relocatable = false;
    bool hot = false;
    std::size_t ddr_offset = 0;  ///< word offset in the staging tier
    std::size_t words = 0;       ///< stored payload length
    std::size_t exact_bytes = 0; ///< pre-padding byte length (containers)
    u32 stored_crc = 0;          ///< CRC of the stored words, checked on read
    Words hot_words;             ///< L1 copy (empty unless hot)
  };

  using EntryMap = std::map<CacheKey, Entry>;

  [[nodiscard]] std::optional<std::size_t> allocate_staging(std::size_t words);
  void evict_for(std::size_t need_words);
  void evict_entry(EntryMap::iterator it);
  [[nodiscard]] EntryMap::iterator coldest(bool hot_tier);
  void promote_entry(const CacheKey& key, Entry& e, WordsView payload);
  void refresh_gauges();

  Config cfg_;
  std::unique_ptr<EvictionPolicy> policy_;
  mem::Ddr2 ddr_;
  EntryMap entries_;

  u64 hits_hot_ = 0;
  u64 hits_staging_ = 0;
  u64 misses_ = 0;
  u64 evictions_ = 0;
  u64 relocations_ = 0;
  u64 poisoned_rejects_ = 0;
};

}  // namespace uparc::cache
