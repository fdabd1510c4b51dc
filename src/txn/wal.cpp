#include "txn/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace uparc::txn {

namespace {

constexpr u32 kWalMagic = 0x55574C31;  // 'UWL1'
constexpr std::size_t kHeaderBytes = 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kFramingBytes = kHeaderBytes + 4;  // + trailing crc

void put_le32(Bytes& out, u32 v) {
  out.push_back(static_cast<u8>(v));
  out.push_back(static_cast<u8>(v >> 8));
  out.push_back(static_cast<u8>(v >> 16));
  out.push_back(static_cast<u8>(v >> 24));
}

void put_le64(Bytes& out, u64 v) {
  put_le32(out, static_cast<u32>(v));
  put_le32(out, static_cast<u32>(v >> 32));
}

[[nodiscard]] u32 get_le32(const u8* p) {
  return u32{p[0]} | (u32{p[1]} << 8) | (u32{p[2]} << 16) | (u32{p[3]} << 24);
}

[[nodiscard]] u64 get_le64(const u8* p) {
  return u64{get_le32(p)} | (u64{get_le32(p + 4)} << 32);
}

/// Attempts to decode one record at `pos`. Returns true and fills `out` on
/// success; on failure `why` says what broke (empty when there simply are
/// not enough bytes for a full header+payload — the torn case).
bool decode_at(BytesView bytes, std::size_t pos, WalScanRecord& out, std::string& why) {
  why.clear();
  if (pos + kFramingBytes > bytes.size()) return false;  // torn
  const u8* p = bytes.data() + pos;
  if (get_le32(p) != kWalMagic) {
    why = "bad magic";
    return false;
  }
  const u32 len = get_le32(p + 24);
  if (pos + kFramingBytes + len > bytes.size()) return false;  // torn
  Crc32 crc;
  crc.update(BytesView(p + 4, kHeaderBytes - 4 + len));
  if (crc.value() != get_le32(p + kHeaderBytes + len)) {
    why = "crc mismatch";
    return false;
  }
  out.seq = get_le64(p + 4);
  out.t = TimePs(get_le64(p + 12));
  out.type = static_cast<WalRecordType>(get_le32(p + 20));
  out.payload.assign(reinterpret_cast<const char*>(p + kHeaderBytes), len);
  out.offset = pos;
  out.bytes = kFramingBytes + len;
  // An unknown `type` still decodes (the lint layer reports it); the
  // framing, not the enum, is what protects the log.
  return true;
}

}  // namespace

// ---------------------------------------------------------------- storage

void MemWalStorage::append(BytesView bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  ++appends_;
  total_write_us_ +=
      latency_.setup_us + static_cast<double>(bytes.size()) / latency_.mb_per_s;
}

void MemWalStorage::truncate(std::size_t new_size) {
  if (new_size < buf_.size()) buf_.resize(new_size);
}

void MemWalStorage::flip_bit(std::size_t byte, unsigned bit) {
  if (byte < buf_.size()) buf_[byte] ^= static_cast<u8>(1u << (bit & 7));
}

void MemWalStorage::reset(BytesView bytes) { buf_.assign(bytes.begin(), bytes.end()); }

// -------------------------------------------------------------------- Wal

Wal::Wal(sim::Simulation& sim, std::string name, WalStorage& storage, WalPolicy policy)
    : sim_(sim), name_(std::move(name)), storage_(storage), policy_(policy) {}

Bytes Wal::encode_record(u64 seq, TimePs t, WalRecordType type, std::string_view payload) {
  Bytes out;
  out.reserve(kFramingBytes + payload.size());
  put_le32(out, kWalMagic);
  put_le64(out, seq);
  put_le64(out, t.ps());
  put_le32(out, static_cast<u32>(type));
  put_le32(out, static_cast<u32>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  Crc32 crc;
  crc.update(BytesView(out.data() + 4, out.size() - 4));
  put_le32(out, crc.value());
  return out;
}

u64 Wal::append_at(WalRecordType type, std::string_view payload, bool run_hook) {
  const u64 seq = next_seq_++;
  const Bytes record = encode_record(seq, sim_.now(), type, payload);
  last_offset_ = storage_.size();
  last_size_ = record.size();
  storage_.append(record);
  ++records_appended_;
  ++records_since_checkpoint_;
  sim_.metrics().counter(name_ + ".appends").add();
  sim_.metrics().counter(name_ + ".bytes").add(static_cast<double>(record.size()));
  if (run_hook && hook_) hook_(seq, sim_.now());
  return seq;
}

u64 Wal::append(WalRecordType type, std::string payload) {
  return append_at(type, payload, /*run_hook=*/true);
}

void Wal::maybe_checkpoint() {
  if (!checkpoint_source_) return;
  if (records_since_checkpoint_ < policy_.segment_records) return;
  checkpoint_now();
}

void Wal::checkpoint_now() {
  const std::string payload = checkpoint_source_ ? checkpoint_source_() : "{}";
  const u64 seq = next_seq_++;
  const Bytes record = encode_record(seq, sim_.now(), WalRecordType::kCheckpoint, payload);
  // Durability order matters: the checkpoint is appended to the live
  // segment like any other record — a crash here tears only the checkpoint,
  // and the prior epoch still recovers. Only once the record is durable
  // (the hook returns) does the atomic segment switch drop the old bytes.
  last_offset_ = storage_.size();
  last_size_ = record.size();
  storage_.append(record);
  ++records_appended_;
  ++checkpoints_;
  sim_.metrics().counter(name_ + ".appends").add();
  sim_.metrics().counter(name_ + ".checkpoints").add();
  if (hook_) hook_(seq, sim_.now());
  compacted_bytes_ += storage_.size() - record.size();
  storage_.reset(record);
  last_offset_ = 0;
  records_since_checkpoint_ = 0;
}

void Wal::corrupt_tail(WalCorruption kind) {
  if (kind == WalCorruption::kNone || last_size_ == 0) return;
  const std::size_t payload_len = last_size_ - kFramingBytes;
  switch (kind) {
    case WalCorruption::kNone:
      break;
    case WalCorruption::kTornWrite:
      // The write stopped mid-payload: keep the header and half the payload.
      storage_.truncate(last_offset_ + kHeaderBytes + payload_len / 2);
      break;
    case WalCorruption::kPartialRecord:
      // Only part of the fixed header made it to media.
      storage_.truncate(last_offset_ + std::min<std::size_t>(20, last_size_ / 2));
      break;
    case WalCorruption::kBitFlip: {
      const std::size_t target = payload_len > 0
                                     ? last_offset_ + kHeaderBytes + payload_len / 2
                                     : last_offset_ + last_size_ - 2;
      storage_.flip_bit(target, 3);
      break;
    }
  }
}

// ------------------------------------------------------------------- scan

WalScan scan_wal(BytesView bytes) {
  WalScan scan;
  std::size_t pos = 0;
  std::string why;
  while (pos < bytes.size()) {
    WalScanRecord rec;
    if (!decode_at(bytes, pos, rec, why)) {
      scan.tail = why.empty() ? WalTailState::kTorn : WalTailState::kCorrupt;
      scan.tail_error = why.empty() ? "truncated record (in-flight write)" : why;
      break;
    }
    scan.records.push_back(std::move(rec));
    pos += scan.records.back().bytes;
  }
  scan.tail_offset = pos;
  scan.discarded_bytes = bytes.size() - pos;
  if (scan.tail != WalTailState::kClean) {
    // A valid record *beyond* the damage means this is not an in-flight
    // write but a hole mid-log; scan forward for the magic marker.
    for (std::size_t p = pos + 1; p + kFramingBytes <= bytes.size(); ++p) {
      if (get_le32(bytes.data() + p) != kWalMagic) continue;
      WalScanRecord rec;
      if (decode_at(bytes, p, rec, why)) {
        scan.resync_after_tail = true;
        break;
      }
    }
  }
  return scan;
}

std::string render_wal_text(const WalScan& scan) {
  std::ostringstream os;
  os << "wal: " << scan.records.size() << " records, tail " << to_string(scan.tail);
  if (scan.tail != WalTailState::kClean) {
    os << " (" << scan.tail_error << " at byte " << scan.tail_offset << ", "
       << scan.discarded_bytes << "B discarded"
       << (scan.resync_after_tail ? ", valid records beyond" : "") << ")";
  }
  os << "\n";
  for (const WalScanRecord& r : scan.records) {
    os << "  seq=" << r.seq << " t=" << r.t.ps() << "ps " << to_string(r.type) << " "
       << r.payload.size() << "B " << r.payload << "\n";
  }
  return os.str();
}

std::string render_wal_json(const WalScan& scan) {
  std::ostringstream os;
  os << "{\"records\":[";
  bool first = true;
  for (const WalScanRecord& r : scan.records) {
    if (!first) os << ",";
    first = false;
    os << "{\"seq\":" << r.seq << ",\"t_ps\":" << r.t.ps() << ",\"type\":\""
       << to_string(r.type) << "\",\"offset\":" << r.offset << ",\"bytes\":" << r.bytes
       << ",\"payload\":";
    // Our writers always journal JSON payloads; embed them structurally.
    // Anything else (foreign or fuzzed logs) degrades to an escaped string.
    if (auto parsed = json::parse(r.payload); parsed.ok()) {
      os << r.payload;
    } else {
      os << "\"" << obs::json_escape(r.payload) << "\"";
    }
    os << "}";
  }
  os << "],\"tail\":\"" << to_string(scan.tail) << "\",\"tail_offset\":" << scan.tail_offset
     << ",\"discarded_bytes\":" << scan.discarded_bytes
     << ",\"resync_after_tail\":" << (scan.resync_after_tail ? "true" : "false");
  if (scan.tail != WalTailState::kClean) {
    os << ",\"tail_error\":\"" << obs::json_escape(scan.tail_error) << "\"";
  }
  os << "}";
  return os.str();
}

}  // namespace uparc::txn
