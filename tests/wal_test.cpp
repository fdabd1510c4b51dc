// Unit tests for the durable write-ahead log: record framing, tail
// classification after the crash-injector corruption modes, compacting
// checkpoints (including the torn-checkpoint durability order), the file
// backend, and the wal.* lint rule catalog.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "analysis/wal_lint.hpp"
#include "fault/crash.hpp"
#include "sim/kernel.hpp"
#include "txn/wal.hpp"

namespace uparc::txn {
namespace {

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

TEST(WalFramingTest, EncodeDecodeRoundTrip) {
  const Bytes rec = Wal::encode_record(7, TimePs{1234}, WalRecordType::kTxnBegin,
                                       "{\"txn\":7}");
  const WalScan scan = scan_wal(rec);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 7u);
  EXPECT_EQ(scan.records[0].t, TimePs{1234});
  EXPECT_EQ(scan.records[0].type, WalRecordType::kTxnBegin);
  EXPECT_EQ(scan.records[0].payload, "{\"txn\":7}");
  EXPECT_EQ(scan.records[0].bytes, rec.size());
  EXPECT_EQ(scan.tail, WalTailState::kClean);
  EXPECT_EQ(scan.discarded_bytes, 0u);
}

TEST(WalTest, AppendsAreScannableWithGaplessSeqs) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  for (int i = 0; i < 5; ++i) {
    wal.append(WalRecordType::kHealth, "{\"health\":{}}");
  }
  EXPECT_EQ(wal.records_appended(), 5u);
  const WalScan scan = scan_wal(store.read_all());
  ASSERT_EQ(scan.records.size(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(scan.records[i].seq, i + 1);
  EXPECT_EQ(scan.tail, WalTailState::kClean);
  EXPECT_TRUE(analysis::lint_wal(scan).clean());
}

TEST(WalTest, TornWriteLosesOnlyTheTailRecord) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  wal.append(WalRecordType::kTxnBegin, "{\"txn\":1,\"region\":\"r0\"}");
  wal.append(WalRecordType::kTxnPhase, "{\"txn\":1,\"phase\":\"forward\"}");
  wal.corrupt_tail(WalCorruption::kTornWrite);
  const WalScan scan = scan_wal(store.read_all());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.last_seq(), 1u);
  EXPECT_EQ(scan.tail, WalTailState::kTorn);
  EXPECT_GT(scan.discarded_bytes, 0u);
  // Expected crash artifact: a warning, never an error.
  const analysis::Report lint = analysis::lint_wal(scan);
  EXPECT_TRUE(lint.has("wal.tail.torn"));
  EXPECT_EQ(lint.error_count(), 0u);
}

TEST(WalTest, PartialHeaderIsTornAndBitFlipIsCorrupt) {
  for (const WalCorruption mode : {WalCorruption::kPartialRecord, WalCorruption::kBitFlip}) {
    sim::Simulation sim;
    MemWalStorage store;
    Wal wal(sim, "wal", store);
    wal.append(WalRecordType::kHealth, "{\"health\":{}}");
    wal.append(WalRecordType::kCachePin, "{\"region\":\"r0\"}");
    wal.corrupt_tail(mode);
    const WalScan scan = scan_wal(store.read_all());
    EXPECT_EQ(scan.last_seq(), 1u) << to_string(mode);
    EXPECT_EQ(scan.tail, mode == WalCorruption::kPartialRecord ? WalTailState::kTorn
                                                               : WalTailState::kCorrupt)
        << to_string(mode);
  }
}

TEST(WalTest, MidLogDamageIsDetectedAsResync) {
  const Bytes r1 = Wal::encode_record(1, TimePs{10}, WalRecordType::kHealth, "{}");
  Bytes r2 = Wal::encode_record(2, TimePs{20}, WalRecordType::kHealth, "{}");
  const Bytes r3 = Wal::encode_record(3, TimePs{30}, WalRecordType::kHealth, "{}");
  r2[r2.size() / 2] ^= 0x10;  // damage mid-log, survivors beyond it
  const WalScan scan = scan_wal(concat({r1, r2, r3}));
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.resync_after_tail);
  const analysis::Report lint = analysis::lint_wal(scan);
  EXPECT_TRUE(lint.has("wal.corrupt.mid"));
  EXPECT_GT(lint.error_count(), 0u);
}

TEST(WalTest, CheckpointRotationCompactsAndKeepsSeqChain) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store, WalPolicy{.segment_records = 3});
  wal.set_checkpoint_source([] { return std::string("{\"snap\":true}"); });
  for (int i = 0; i < 4; ++i) wal.append(WalRecordType::kHealth, "{}");
  const std::size_t before = store.size();
  wal.maybe_checkpoint();
  EXPECT_EQ(wal.checkpoints(), 1u);
  EXPECT_LT(store.size(), before + 100);  // compacted: old records dropped
  const WalScan scan = scan_wal(store.read_all());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(scan.records[0].seq, 5u);  // seq survives compaction
  EXPECT_EQ(scan.records[0].payload, "{\"snap\":true}");
  wal.append(WalRecordType::kHealth, "{}");
  EXPECT_EQ(scan_wal(store.read_all()).last_seq(), 6u);
}

TEST(WalTest, CrashDuringCheckpointPreservesThePriorEpoch) {
  // Durability-order regression: the checkpoint record must be appended
  // (tearable) *before* the segment switch drops the old bytes — a crash
  // mid-checkpoint may lose the checkpoint, never the history behind it.
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  wal.set_checkpoint_source([] { return std::string("{\"snap\":true}"); });
  wal.append(WalRecordType::kTxnBegin, "{\"txn\":1,\"region\":\"r0\"}");
  wal.append(WalRecordType::kTxnPhase, "{\"txn\":1,\"phase\":\"committed\"}");
  fault::CrashInjector injector({.wal_seq = 3, .corruption = WalCorruption::kTornWrite});
  injector.arm(wal);
  EXPECT_THROW(wal.checkpoint_now(), fault::ControllerCrash);
  EXPECT_TRUE(injector.crashed());
  const WalScan scan = scan_wal(store.read_all());
  ASSERT_EQ(scan.records.size(), 2u);  // the pre-checkpoint history survives
  EXPECT_EQ(scan.last_seq(), 2u);
  EXPECT_EQ(scan.tail, WalTailState::kTorn);  // only the checkpoint tore
}

TEST(WalLintTest, FlagsSeqGapAndBackwardsClock) {
  const Bytes log = concat({Wal::encode_record(1, TimePs{100}, WalRecordType::kHealth, "{}"),
                            Wal::encode_record(3, TimePs{50}, WalRecordType::kHealth, "{}")});
  const analysis::Report lint = analysis::lint_wal_bytes(log);
  EXPECT_TRUE(lint.has("wal.seq.gap"));
  EXPECT_TRUE(lint.has("wal.time.backwards"));
}

TEST(WalLintTest, FlagsTxnSemantics) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  // txn 1: commits without a journaled golden. txn 2: phase for a txn that
  // never began. txn 1 then advances after its terminal.
  wal.append(WalRecordType::kTxnBegin, "{\"txn\":1,\"region\":\"r0\"}");
  wal.append(WalRecordType::kTxnPhase, "{\"txn\":1,\"phase\":\"committed\"}");
  wal.append(WalRecordType::kTxnPhase, "{\"txn\":2,\"phase\":\"forward\"}");
  wal.append(WalRecordType::kTxnPhase, "{\"txn\":1,\"phase\":\"forward\"}");
  wal.append(WalRecordType::kTxnBegin, "{\"txn\":3,\"region\":\"r1\"}");
  const analysis::Report lint = analysis::lint_wal_bytes(store.read_all());
  EXPECT_TRUE(lint.has("wal.golden.missing"));
  EXPECT_TRUE(lint.has("wal.txn.orphan"));
  EXPECT_TRUE(lint.has("wal.phase.after-terminal"));
  EXPECT_TRUE(lint.has("wal.txn.open"));
}

TEST(WalLintTest, BadPayloadAndUnknownTypeAreReported) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  wal.append(WalRecordType::kHealth, "{not json");
  store.append(Wal::encode_record(2, TimePs{1}, static_cast<WalRecordType>(99), "{}"));
  const analysis::Report lint = analysis::lint_wal_bytes(store.read_all());
  EXPECT_TRUE(lint.has("wal.payload.bad-json"));
  EXPECT_TRUE(lint.has("wal.type.unknown"));
}

TEST(WalTest, RenderJsonIsDeterministic) {
  sim::Simulation sim;
  MemWalStorage store;
  Wal wal(sim, "wal", store);
  wal.append(WalRecordType::kTxnBegin, "{\"txn\":1,\"region\":\"r0\"}");
  wal.corrupt_tail(WalCorruption::kBitFlip);
  const WalScan scan = scan_wal(store.read_all());
  EXPECT_EQ(render_wal_json(scan), render_wal_json(scan_wal(store.read_all())));
  EXPECT_FALSE(render_wal_text(scan).empty());
}

}  // namespace
}  // namespace uparc::txn
