// Unit tests for the memory models: BRAM, DDR2, CompactFlash.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "mem/bram.hpp"
#include "mem/compact_flash.hpp"
#include "mem/ddr2.hpp"

namespace uparc::mem {
namespace {

using namespace uparc::literals;

TEST(Bram, SizeAndRating) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 256_KiB);
  EXPECT_EQ(bram.size_bytes(), 256_KiB);
  EXPECT_EQ(bram.size_words(), 65'536u);
  EXPECT_EQ(bram.rated_fmax(), Frequency::mhz(300));
}

TEST(Bram, WriteReadRoundTrip) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 1024);
  bram.write_word(0, 0xAA995566u);
  bram.write_word(255, 0xDEADBEEFu);
  EXPECT_EQ(bram.read_word(0), 0xAA995566u);
  EXPECT_EQ(bram.read_word(255), 0xDEADBEEFu);
  EXPECT_EQ(bram.reads(), 2u);
  EXPECT_EQ(bram.writes(), 2u);
}

TEST(Bram, OutOfRangeThrows) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 16);
  EXPECT_THROW(bram.write_word(4, 0), std::out_of_range);
  EXPECT_THROW((void)bram.read_word(4), std::out_of_range);
  EXPECT_THROW(Bram(sim, "bad", 0), std::invalid_argument);
  EXPECT_THROW(Bram(sim, "bad", 6), std::invalid_argument);
}

TEST(Bram, LoadPacksBigEndian) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 16);
  Bytes data = {0x01, 0x02, 0x03, 0x04, 0xAA, 0xBB};
  bram.load(data);
  EXPECT_EQ(bram.read_word(0), 0x01020304u);
  EXPECT_EQ(bram.read_word(1), 0xAABB0000u);
}

TEST(Bram, BurstReadsPassATapOnlyWithinItsQuietAnswer) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 1024);
  EXPECT_EQ(bram.quiet_reads(50), 50u);  // no tap
  bram.set_read_tap([](std::size_t, u32 value) { return value; });
  EXPECT_EQ(bram.quiet_reads(50), 0u);  // a tap without a quiet answer
  EXPECT_THROW((void)bram.read_words(0, 4), std::logic_error);

  u64 passed = 0;
  bram.set_read_tap([](std::size_t, u32 value) { return value; },
                    {[](u64 n) { return std::min<u64>(n, 10); },
                     [&](u64 k) {
                       if (k > 10) throw std::logic_error("past the quiet run");
                       passed += k;
                     }});
  EXPECT_EQ(bram.quiet_reads(50), 10u);
  EXPECT_EQ(bram.read_words(0, 10).size(), 10u);
  EXPECT_EQ(passed, 10u);
  EXPECT_EQ(bram.reads(), 10u);
  EXPECT_THROW((void)bram.read_words(0, 11), std::logic_error);
}

TEST(Bram, LoadOverflowThrows) {
  sim::Simulation sim;
  Bram bram(sim, "bram", 8);
  Words w = {1, 2, 3};
  EXPECT_THROW(bram.load_words(w, 0), std::out_of_range);
  w.resize(2);
  bram.load_words(w, 0);
  EXPECT_EQ(bram.read_word(1), 2u);
}

TEST(Ddr2, ReadReturnsStoredData) {
  sim::Simulation sim;
  Ddr2 ddr(sim, "ddr", 64_KiB);
  Words data(64);
  for (u32 i = 0; i < 64; ++i) data[i] = i * 3;
  ddr.load_words(data, 100);
  Words out;
  (void)ddr.read_burst(100, 64, out);
  EXPECT_EQ(out, data);
}

TEST(Ddr2, SequentialSlowerThanBram) {
  sim::Simulation sim;
  Ddr2 ddr(sim, "ddr", 1_MiB);
  Words out;
  unsigned cycles = ddr.read_burst(0, 4096, out);
  // BRAM streams 1 word/cycle; DDR2 must be strictly slower.
  EXPECT_GT(cycles, 4096u);
  double wpc = 4096.0 / cycles;
  EXPECT_LT(wpc, 0.75);
  EXPECT_GT(wpc, 0.4);
}

TEST(Ddr2, CalibrationMatchesClosedForm) {
  sim::Simulation sim;
  Ddr2 ddr(sim, "ddr", 4_MiB);
  Words out;
  const std::size_t n = 256 * 1024 / 4;
  unsigned cycles = ddr.read_burst(0, n, out);
  const double measured = static_cast<double>(n) / cycles;
  EXPECT_NEAR(measured, ddr.sequential_words_per_cycle(), 0.03);
}

TEST(Ddr2, MstIcapBandwidthNeighborhood) {
  // Table III: MST_ICAP reaches ~235 MB/s at ~120 MHz => ~0.49 words/cycle.
  sim::Simulation sim;
  Ddr2 ddr(sim, "ddr", 1_MiB);
  const double wpc = ddr.sequential_words_per_cycle();
  const double mbps = wpc * 4.0 * 120e6 / 1e6;
  EXPECT_NEAR(mbps, 235.0, 40.0);
}

TEST(Ddr2, RowMissesTracked) {
  sim::Simulation sim;
  Ddr2 ddr(sim, "ddr", 1_MiB);
  Words out;
  (void)ddr.read_burst(0, 2048, out);  // crosses 4 rows of 512 words
  EXPECT_GE(ddr.row_misses(), 4u);
}

TEST(CompactFlash, StoreAndReadSector) {
  sim::Simulation sim;
  CompactFlash cf(sim, "cf", 64_KiB);
  Bytes img(1024);
  Prng rng(3);
  for (auto& b : img) b = rng.byte();
  cf.store(img, 0);
  Bytes out;
  TimePs t = cf.read_sector(1, out);
  ASSERT_EQ(out.size(), 512u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), img.begin() + 512));
  EXPECT_GT(t.ps(), 0u);
}

TEST(CompactFlash, ThroughputMatchesPaperMode) {
  // Paper: xps_hwicap from CompactFlash ~= 180 KB/s.
  sim::Simulation sim;
  CompactFlash cf(sim, "cf", 1_MiB);
  const double kbps = cf.sequential_bandwidth().bytes_per_sec() / 1024.0;
  EXPECT_NEAR(kbps, 180.0, 15.0);
}

TEST(CompactFlash, OutOfRangeThrows) {
  sim::Simulation sim;
  CompactFlash cf(sim, "cf", 4096);
  Bytes out;
  EXPECT_THROW((void)cf.read_sector(8, out), std::out_of_range);
  Bytes big(8192);
  EXPECT_THROW(cf.store(big, 0), std::out_of_range);
}

}  // namespace
}  // namespace uparc::mem
