// Unit tests for the region subsystem: geometry, floorplans, module library,
// region manager.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.hpp"
#include "region/region_manager.hpp"

namespace uparc::region {
namespace {

using namespace uparc::literals;

bits::PartialBitstream make_bs(std::size_t bytes, u64 seed,
                               bits::FrameAddress start = {0, 0, 0, 10, 0}) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.start_address = start;
  cfg.utilization = 1.0;  // region tests want deterministic frame coverage
  return bits::Generator(cfg).generate();
}

TEST(Geometry, FramesFollowAutoIncrementOrder) {
  RegionGeometry g{bits::FrameAddress{0, 0, 0, 5, 126}, 4};
  auto frames = g.frames();
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].minor, 126u);
  EXPECT_EQ(frames[1].minor, 127u);
  EXPECT_EQ(frames[2].minor, 0u);
  EXPECT_EQ(frames[2].column, 6u);
}

TEST(Geometry, CoversAndOverlaps) {
  RegionGeometry a{bits::FrameAddress{0, 0, 0, 5, 0}, 100};
  RegionGeometry b{bits::FrameAddress{0, 0, 0, 5, 50}, 100};  // overlaps a
  RegionGeometry c{bits::FrameAddress{0, 0, 1, 5, 0}, 100};   // other row
  EXPECT_TRUE(a.covers(bits::FrameAddress{0, 0, 0, 5, 99}));
  EXPECT_FALSE(a.covers(bits::FrameAddress{0, 0, 0, 6, 0}));
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(FloorplanTest, RejectsOverlapsAndDuplicates) {
  Floorplan fp(bits::kVirtex5Sx50t);
  ASSERT_TRUE(fp.add_region("r0", {bits::FrameAddress{0, 0, 0, 10, 0}, 256}).ok());
  EXPECT_FALSE(fp.add_region("r0", {bits::FrameAddress{0, 0, 5, 10, 0}, 16}).ok());
  EXPECT_FALSE(fp.add_region("r1", {bits::FrameAddress{0, 0, 0, 10, 128}, 256}).ok());
  EXPECT_FALSE(fp.add_region("rz", {bits::FrameAddress{0, 0, 7, 0, 0}, 0}).ok());
  ASSERT_TRUE(fp.add_region("r1", {bits::FrameAddress{0, 0, 1, 10, 0}, 256}).ok());
  EXPECT_EQ(fp.regions().size(), 2u);
  EXPECT_NE(fp.find("r1"), nullptr);
  EXPECT_EQ(fp.find("nope"), nullptr);
  EXPECT_EQ(fp.region_at(bits::FrameAddress{0, 0, 1, 10, 3})->name, "r1");
  EXPECT_EQ(fp.region_at(bits::FrameAddress{1, 1, 1, 1, 1}), nullptr);
}

TEST(FloorplanTest, CheckFitsValidatesSizeAndOrigin) {
  Floorplan fp(bits::kVirtex5Sx50t);
  const bits::FrameAddress origin{0, 0, 0, 20, 0};
  ASSERT_TRUE(fp.add_region("r0", {origin, 300}).ok());
  const Region& r0 = *fp.find("r0");

  auto fits = make_bs(16_KiB, 1, origin);  // ~100 frames
  EXPECT_TRUE(fp.check_fits(r0, fits).ok());

  auto wrong_origin = make_bs(16_KiB, 1, bits::FrameAddress{0, 0, 0, 30, 0});
  EXPECT_FALSE(fp.check_fits(r0, wrong_origin).ok());

  auto too_big = make_bs(64_KiB, 1, origin);  // ~400 frames
  EXPECT_FALSE(fp.check_fits(r0, too_big).ok());
}

TEST(ModuleLibraryTest, StoresCompressedAndRestores) {
  ModuleLibrary lib;
  auto bs = make_bs(32_KiB, 5);
  ASSERT_TRUE(lib.add_module("fft", bs).ok());
  EXPECT_FALSE(lib.add_module("fft", bs).ok());  // duplicate
  EXPECT_TRUE(lib.has("fft"));
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_LT(lib.stored_bytes(), bs.body_bytes() / 2);  // compressed at rest

  auto restored = lib.original("fft");
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value().body, bs.body);
  EXPECT_FALSE(lib.original("missing").ok());
}

TEST(ModuleLibraryTest, AddModuleRejectsAnImageWithoutADevice) {
  // The IDCODE write replaced by NOOPs: the stored file no longer names a
  // device, so it cannot be decoded. Registration must say so, not the
  // first load.
  auto bs = make_bs(16_KiB, 7);
  const u32 idcode_write = bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kIdcode, 1);
  auto at = std::find(bs.body.begin(), bs.body.end(), idcode_write);
  ASSERT_NE(at, bs.body.end());
  at[0] = bits::kNoopWord;
  at[1] = bits::kNoopWord;

  ModuleLibrary lib;
  const Status added = lib.add_module("bad", bs);
  ASSERT_FALSE(added.ok());
  EXPECT_NE(added.error().message.find("'bad'"), std::string::npos) << added.error().message;
  EXPECT_FALSE(lib.has("bad"));
  EXPECT_EQ(lib.size(), 0u);
}

TEST(ModuleLibraryTest, InstantiateRelocatesToRegion) {
  Floorplan fp(bits::kVirtex5Sx50t);
  const bits::FrameAddress origin{0, 0, 3, 40, 0};
  ASSERT_TRUE(fp.add_region("slot", {origin, 512}).ok());

  ModuleLibrary lib;
  auto bs = make_bs(32_KiB, 5);  // compiled at column 10
  ASSERT_TRUE(lib.add_module("fft", bs).ok());

  auto inst = lib.instantiate("fft", fp, *fp.find("slot"));
  ASSERT_TRUE(inst.ok()) << inst.error().message;
  const bits::PartialBitstream& placed = inst.value()->bitstream();
  EXPECT_EQ(placed.frames.front().address, origin);
  EXPECT_EQ(placed.frames.size(), bs.frames.size());
  // Content preserved.
  for (std::size_t i = 0; i < bs.frames.size(); ++i) {
    EXPECT_EQ(placed.frames[i].data, bs.frames[i].data);
  }
}

TEST(ModuleLibraryTest, InstantiateRejectsOversizedModule) {
  Floorplan fp(bits::kVirtex5Sx50t);
  ASSERT_TRUE(fp.add_region("tiny", {bits::FrameAddress{0, 0, 3, 40, 0}, 8}).ok());
  ModuleLibrary lib;
  ASSERT_TRUE(lib.add_module("big", make_bs(32_KiB, 5)).ok());
  EXPECT_FALSE(lib.instantiate("big", fp, *fp.find("tiny")).ok());
}

class RegionManagerFixture : public ::testing::Test {
 protected:
  RegionManagerFixture() {
    Floorplan fp(bits::kVirtex5Sx50t);
    EXPECT_TRUE(fp.add_region("slot_a", {bits::FrameAddress{0, 0, 1, 10, 0}, 512}).ok());
    EXPECT_TRUE(fp.add_region("slot_b", {bits::FrameAddress{0, 0, 2, 10, 0}, 512}).ok());
    EXPECT_TRUE(lib.add_module("fft", make_bs(32_KiB, 5)).ok());
    EXPECT_TRUE(lib.add_module("fir", make_bs(24_KiB, 6)).ok());
    mgr = std::make_unique<RegionManager>(sys.sim(), "region_mgr", std::move(fp), lib,
                                          sys.uparc(), sys.plane());
  }

  LoadResult load_blocking(const std::string& module, const std::string& region) {
    std::optional<LoadResult> got;
    mgr->load(module, region, [&](const LoadResult& r) { got = r; });
    sys.sim().run();
    EXPECT_TRUE(got.has_value());
    return *got;
  }

  core::System sys;
  ModuleLibrary lib;
  std::unique_ptr<RegionManager> mgr;
};

TEST_F(RegionManagerFixture, LoadsModuleIntoRegion) {
  auto r = load_blocking("fft", "slot_a");
  ASSERT_TRUE(r.success) << r.error;
  EXPECT_EQ(mgr->occupant("slot_a"), "fft");
  EXPECT_EQ(mgr->loads_completed(), 1u);
  EXPECT_GT(r.reconfig.bandwidth().mb_per_sec(), 100.0);
}

TEST_F(RegionManagerFixture, TwoRegionsHoldTwoModules) {
  ASSERT_TRUE(load_blocking("fft", "slot_a").success);
  ASSERT_TRUE(load_blocking("fir", "slot_b").success);
  EXPECT_EQ(mgr->occupant("slot_a"), "fft");
  EXPECT_EQ(mgr->occupant("slot_b"), "fir");
}

TEST_F(RegionManagerFixture, SwapModuleInPlace) {
  ASSERT_TRUE(load_blocking("fft", "slot_a").success);
  ASSERT_TRUE(load_blocking("fir", "slot_a").success);
  EXPECT_EQ(mgr->occupant("slot_a"), "fir");
  EXPECT_EQ(mgr->floorplan().find("slot_a")->reconfigurations, 2u);
}

TEST_F(RegionManagerFixture, QueuedLoadsRunSequentially) {
  std::vector<std::string> completion_order;
  mgr->load("fft", "slot_a", [&](const LoadResult& r) {
    EXPECT_TRUE(r.success) << r.error;
    completion_order.push_back("fft");
  });
  mgr->load("fir", "slot_b", [&](const LoadResult& r) {
    EXPECT_TRUE(r.success) << r.error;
    completion_order.push_back("fir");
  });
  EXPECT_EQ(mgr->queue_depth(), 1u);  // second is queued behind the first
  sys.sim().run();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], "fft");
  EXPECT_EQ(completion_order[1], "fir");
  EXPECT_EQ(mgr->loads_completed(), 2u);
}

TEST_F(RegionManagerFixture, ErrorsReportedThroughCallback) {
  auto bad_region = load_blocking("fft", "slot_z");
  EXPECT_FALSE(bad_region.success);
  EXPECT_NE(bad_region.error.find("unknown region"), std::string::npos);

  auto bad_module = load_blocking("ghost", "slot_a");
  EXPECT_FALSE(bad_module.success);
  EXPECT_NE(bad_module.error.find("unknown module"), std::string::npos);
  EXPECT_EQ(mgr->loads_failed(), 2u);
}

TEST_F(RegionManagerFixture, EvictClearsBookkeeping) {
  ASSERT_TRUE(load_blocking("fft", "slot_a").success);
  ASSERT_TRUE(mgr->evict("slot_a").ok());
  EXPECT_EQ(mgr->occupant("slot_a"), "");
  EXPECT_FALSE(mgr->evict("slot_z").ok());
}

}  // namespace
}  // namespace uparc::region
