#include "cache/bitstream_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/crc32.hpp"
#include "obs/trace.hpp"
#include "scrub/signature.hpp"

namespace uparc::cache {

std::string_view to_string(CacheTier tier) {
  switch (tier) {
    case CacheTier::kBypass: return "bypass";
    case CacheTier::kMiss: return "miss";
    case CacheTier::kResident: return "resident";
    case CacheTier::kHot: return "hot";
    case CacheTier::kStaging: return "staging";
  }
  return "?";
}

namespace {

// Manager cycles charged on a hit, on top of the tag check core::Uparc
// charges for every lookup.
constexpr u64 kHotCopyCyclesPerWord = 1;    ///< BRAM-to-BRAM burst (dual port)
constexpr u64 kLandingCyclesPerWord = 1;    ///< DDR2 burst -> BRAM landing copy
constexpr u64 kRelocateCyclesPerFrame = 4;  ///< FAR/CRC patch per frame

/// Key of an image with ground-truth frames: the fold of the per-frame data
/// CRCs (address-independent, so the key survives relocation).
CacheKey relocatable_key(u32 content_fold, std::size_t frames) {
  CacheKey key;
  key.content_crc = content_fold;
  key.frame_count = static_cast<u32>(frames);
  key.origin_far = 0;  // relocatable: address excluded from identity
  return key;
}

/// A container embeds the FAR, so its entry is pinned to the image origin.
CacheKey pinned_container_key(CacheKey key, const bits::PartialBitstream& bs, u8 codec_id) {
  key.kind = static_cast<u8>(1 + codec_id);
  key.origin_far = bs.frames.empty() ? key.origin_far : bs.frames.front().address.pack();
  return key;
}

}  // namespace

CacheKey key_of(const bits::PartialBitstream& bs) {
  if (bs.frames.empty()) {
    // No ground truth: exact-content entry, never relocated.
    CacheKey key;
    key.content_crc = crc32_words(bs.body);
    key.origin_far = 0xFFFFFFFFu;
    return key;
  }
  return relocatable_key(scrub::GoldenSignature(bs.frames).content_fold(), bs.frames.size());
}

CacheKey key_of_compressed(const bits::PartialBitstream& bs, u8 codec_id) {
  return pinned_container_key(key_of(bs), bs, codec_id);
}

CacheKey key_of(const bits::Image& image) {
  const bits::PartialBitstream& bs = image.bitstream();
  if (bs.frames.empty()) return key_of(bs);
  return relocatable_key(image.content_fold(), bs.frames.size());
}

CacheKey key_of_compressed(const bits::Image& image, u8 codec_id) {
  return pinned_container_key(key_of(image), image.bitstream(), codec_id);
}

double LruPolicy::score(const EntryMeta& e, TimePs /*now*/) const {
  return static_cast<double>(e.last_use.ps());
}

EnergyWeightedPolicy::EnergyWeightedPolicy(sched::EnergyPolicy model, TimePs half_life)
    : model_(model), half_life_(half_life) {}

double EnergyWeightedPolicy::score(const EntryMeta& e, TimePs now) const {
  const double cost = model_.refetch_cost_uj(e.bytes);
  if (half_life_.ps() <= 0) return cost;
  const double age = static_cast<double>((now - e.last_use).ps());
  return cost * std::pow(0.5, age / static_cast<double>(half_life_.ps()));
}

std::unique_ptr<EvictionPolicy> make_eviction_policy(std::string_view name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "energy") return std::make_unique<EnergyWeightedPolicy>();
  return nullptr;
}

BitstreamCache::BitstreamCache(sim::Simulation& sim, std::string name, Config cfg,
                               std::unique_ptr<EvictionPolicy> policy)
    : Module(sim, std::move(name)),
      cfg_(cfg),
      policy_(policy ? std::move(policy) : std::make_unique<LruPolicy>()),
      ddr_(sim, this->name() + ".staging", cfg_.staging_bytes) {}

void BitstreamCache::set_policy(std::unique_ptr<EvictionPolicy> policy) {
  if (policy) policy_ = std::move(policy);
}

std::size_t BitstreamCache::hot_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& kv) { return kv.second.hot; }));
}

std::size_t BitstreamCache::staging_bytes_used() const {
  std::size_t words = 0;
  for (const auto& [key, e] : entries_) words += e.words;
  return words * 4;
}

bool BitstreamCache::contains(const CacheKey& key) const {
  return entries_.count(key) != 0;
}

std::optional<std::size_t> BitstreamCache::allocate_staging(std::size_t words) {
  // First-fit over the gaps between live entries, sorted by offset. Entry
  // counts are tiny (tens), so the scan is cheaper than a real allocator.
  std::vector<std::pair<std::size_t, std::size_t>> live;  // (offset, words)
  live.reserve(entries_.size());
  for (const auto& [key, e] : entries_) live.emplace_back(e.ddr_offset, e.words);
  std::sort(live.begin(), live.end());
  std::size_t cursor = 0;
  for (const auto& [off, len] : live) {
    if (off - cursor >= words) return cursor;
    cursor = off + len;
  }
  if (ddr_.size_words() - cursor >= words) return cursor;
  return std::nullopt;
}

BitstreamCache::EntryMap::iterator BitstreamCache::coldest(bool hot_tier) {
  auto best = entries_.end();
  double best_score = 0;
  const TimePs now = sim_.now();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.hot != hot_tier) continue;
    const double s = policy_->score(it->second.meta, now);
    if (best == entries_.end() || s < best_score) {
      best = it;
      best_score = s;
    }
  }
  return best;
}

void BitstreamCache::evict_entry(EntryMap::iterator it) {
  ++evictions_;
  metrics().counter(name() + ".evictions").add();
  if (obs::Tracer* tr = tracer()) tr->instant("cache.evict", "cache");
  entries_.erase(it);
}

void BitstreamCache::evict_for(std::size_t need_words) {
  // Drop policy-coldest entries (staging copies first, then hot residents)
  // until a contiguous run of `need_words` exists.
  while (!allocate_staging(need_words).has_value()) {
    auto victim = coldest(/*hot_tier=*/false);
    if (victim == entries_.end()) victim = coldest(/*hot_tier=*/true);
    if (victim == entries_.end()) return;
    evict_entry(victim);
  }
}

void BitstreamCache::admit(const CacheKey& key, WordsView stored, std::size_t exact_bytes,
                           bits::FrameAddress origin, bool relocatable) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.meta.last_use = sim_.now();
    return;
  }
  if (stored.size() > ddr_.size_words()) {
    metrics().counter(name() + ".uncacheable").add();
    return;
  }
  evict_for(stored.size());
  auto offset = allocate_staging(stored.size());
  if (!offset) {
    metrics().counter(name() + ".uncacheable").add();
    return;
  }
  Entry e;
  e.meta.bytes = exact_bytes;
  e.meta.admitted = e.meta.last_use = sim_.now();
  e.origin = origin;
  e.relocatable = relocatable;
  e.ddr_offset = *offset;
  e.words = stored.size();
  e.exact_bytes = exact_bytes;
  e.stored_crc = crc32_words(stored);
  ddr_.load_words(stored, *offset);
  entries_.emplace(key, std::move(e));
  metrics().counter(name() + ".admits").add();
  if (obs::Tracer* tr = tracer()) tr->instant("cache.admit", "cache");
  refresh_gauges();
}

void BitstreamCache::promote_entry(const CacheKey& key, Entry& e, WordsView payload) {
  if (e.hot) return;
  if (payload.size() * 4 > cfg_.hot_slot_bytes) return;
  while (hot_count() >= cfg_.hot_slots) {
    auto victim = coldest(/*hot_tier=*/true);
    if (victim == entries_.end()) return;
    // Demote rather than drop: the staging copy is still valid.
    victim->second.hot = false;
    victim->second.hot_words.clear();
    metrics().counter(name() + ".demotions").add();
  }
  e.hot = true;
  e.hot_words.assign(payload.begin(), payload.end());
  metrics().counter(name() + ".promotions").add();
  (void)key;
  refresh_gauges();
}

void BitstreamCache::promote(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (e.hot) return;
  Words out;
  (void)ddr_.read_burst(e.ddr_offset, e.words, out);  // commit-path copy: untimed
  if (crc32_words(out) != e.stored_crc) {
    ++poisoned_rejects_;
    metrics().counter(name() + ".poisoned_rejects").add();
    evict_entry(it);
    return;
  }
  promote_entry(key, e, out);
}

void BitstreamCache::invalidate(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  entries_.erase(it);
  metrics().counter(name() + ".invalidations").add();
  if (obs::Tracer* tr = tracer()) tr->instant("cache.invalidate", "cache");
  refresh_gauges();
}

std::optional<BitstreamCache::Served> BitstreamCache::lookup(
    const CacheKey& key, const bits::FrameAddress* want_origin) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    metrics().counter(name() + ".misses").add();
    if (obs::Tracer* tr = tracer()) tr->instant("cache.miss", "cache");
    return std::nullopt;
  }
  Entry& e = it->second;

  Served served;
  served.exact_bytes = e.exact_bytes;
  if (e.hot) {
    served.tier = CacheTier::kHot;
    served.words = e.hot_words;
    served.copy_cycles = static_cast<u64>(served.words.size()) * kHotCopyCyclesPerWord;
  } else {
    served.tier = CacheTier::kStaging;
    const unsigned ddr_cycles = ddr_.read_burst(e.ddr_offset, e.words, served.words);
    served.copy_cycles =
        ddr_cycles + static_cast<u64>(e.words) * kLandingCyclesPerWord;
  }

  // Integrity gate: the stored copy must still match what was admitted. A
  // flipped word in the staging DRAM (or a torn slot) turns the hit into a
  // miss — never into a wrong configuration.
  if (served.words.size() != e.words || crc32_words(served.words) != e.stored_crc) {
    ++poisoned_rejects_;
    ++misses_;
    metrics().counter(name() + ".poisoned_rejects").add();
    metrics().counter(name() + ".misses").add();
    if (obs::Tracer* tr = tracer()) tr->instant("cache.poisoned", "cache");
    evict_entry(it);
    return std::nullopt;
  }

  // Hot promotion must hold the payload exactly as admitted (the stored
  // CRC covers it); keep a copy before any relocation rewrite.
  const Words as_stored = served.words;

  if (want_origin != nullptr && *want_origin != e.origin) {
    if (!e.relocatable) {
      // Pinned entry at the wrong origin cannot serve this request.
      ++misses_;
      metrics().counter(name() + ".misses").add();
      return std::nullopt;
    }
    bits::PartialBitstream img;
    img.body = std::move(served.words);
    auto reloc = bits::relocate(img, *want_origin);
    if (!reloc.ok()) {
      ++misses_;
      metrics().counter(name() + ".misses").add();
      metrics().counter(name() + ".relocate_failures").add();
      return std::nullopt;
    }
    served.words = std::move(reloc.value().body);
    served.frames = std::move(reloc.value().frames);
    served.relocated = true;
    served.copy_cycles +=
        static_cast<u64>(key.frame_count) * kRelocateCyclesPerFrame;
    ++relocations_;
    metrics().counter(name() + ".relocations").add();
  }

  e.meta.last_use = sim_.now();
  ++e.meta.hits;
  if (served.tier == CacheTier::kHot) {
    ++hits_hot_;
    metrics().counter(name() + ".hits_hot").add();
  } else {
    ++hits_staging_;
    metrics().counter(name() + ".hits_staging").add();
    // A reused staging entry earns a hot slot (if one can be had).
    promote_entry(key, e, as_stored);
  }
  metrics().gauge(name() + ".hit_rate").set(hit_rate());
  if (obs::Tracer* tr = tracer()) {
    tr->instant(std::string("cache.hit_") + std::string(to_string(served.tier)), "cache");
  }
  return served;
}

void BitstreamCache::refresh_gauges() {
  metrics().gauge(name() + ".entries").set(static_cast<double>(entries_.size()));
  metrics().gauge(name() + ".hot_entries").set(static_cast<double>(hot_count()));
  metrics().gauge(name() + ".staging_bytes").set(static_cast<double>(staging_bytes_used()));
}

}  // namespace uparc::cache
