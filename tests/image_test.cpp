// The image memo against its from-scratch reference: every fact a prepared
// bits::Image hands out (relocated body and frames, cache keys, readback
// signature, WAL golden fragment, lint verdict) must equal what the
// PartialBitstream entry points recompute.
#include <gtest/gtest.h>

#include "bitstream/relocate.hpp"
#include "core/system.hpp"
#include "txn/stack.hpp"

namespace uparc {
namespace {

/// The WAL golden fragment built from scratch: one crc32_words per frame.
std::string golden_fragment_from_scratch(const std::vector<bits::Frame>& frames) {
  std::string out = "[";
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out += (i == 0 ? "[" : ",[") + std::to_string(frames[i].address.pack()) + "," +
           std::to_string(crc32_words(frames[i].data)) + "]";
  }
  return out + "]";
}

/// Parameterized by Virtex family (5 or 6).
class ImageMemoTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ImageMemoTest, MatchesRecomputeForEveryModuleAndRegion) {
  const bits::Device device = GetParam() == 5 ? bits::kVirtex5Sx50t : bits::kVirtex6Lx240t;
  const bits::Device other = GetParam() == 5 ? bits::kVirtex6Lx240t : bits::kVirtex5Sx50t;
  txn::ModuleSet set = txn::make_module_set(device, 4, 8, 11);
  const region::Floorplan floorplan = txn::make_floorplan(device, 3, set.frames());
  set.library.prepare(floorplan);

  for (unsigned m = 0; m < set.size(); ++m) {
    const std::string name = "m" + std::to_string(m);
    for (const region::Region& region : floorplan.regions()) {
      SCOPED_TRACE(name + " in " + region.name);
      auto first = set.library.instantiate(name, floorplan, region);
      auto again = set.library.instantiate(name, floorplan, region);
      ASSERT_TRUE(first.ok()) << first.error().message;
      ASSERT_TRUE(again.ok()) << again.error().message;
      EXPECT_EQ(first.value().get(), again.value().get()) << "prepared pair rebuilt";
      const bits::Image& image = *first.value();

      auto moved = bits::relocate(set.images[m], region.geometry.origin);
      ASSERT_TRUE(moved.ok()) << moved.error().message;
      const bits::PartialBitstream& ref = moved.value();
      const bits::PartialBitstream& got = image.bitstream();
      EXPECT_EQ(got.body, ref.body);
      ASSERT_EQ(got.frames.size(), ref.frames.size());
      for (std::size_t f = 0; f < ref.frames.size(); ++f) {
        EXPECT_EQ(got.frames[f].address, ref.frames[f].address);
        EXPECT_EQ(got.frames[f].data, ref.frames[f].data);
      }

      const bits::PartialBitstream copy = got;
      const u8 codec = static_cast<u8>(compress::CodecId::kXMatchPro);
      EXPECT_EQ(cache::key_of(image), cache::key_of(copy));
      EXPECT_EQ(cache::key_of_compressed(image, codec), cache::key_of_compressed(copy, codec));
      const scrub::GoldenSignature signature(copy.frames);
      EXPECT_EQ(image.signature().entries(), signature.entries());
      EXPECT_EQ(image.signature().addresses(), signature.addresses());
      EXPECT_EQ(txn::golden_frames_json(image), golden_fragment_from_scratch(copy.frames));

      const analysis::Report report = analysis::lint_body(device, copy.body);
      const analysis::LintVerdict* verdict = image.lint_for(device);
      ASSERT_NE(verdict, nullptr);
      EXPECT_EQ(verdict->diagnostics, report.diagnostics().size());
      const analysis::Diagnostic* first_error = nullptr;
      for (const analysis::Diagnostic& d : report.diagnostics()) {
        if (d.severity == analysis::Severity::kError) {
          first_error = &d;
          break;
        }
      }
      ASSERT_EQ(verdict->first_error.has_value(), first_error != nullptr);
      if (first_error != nullptr) {
        EXPECT_EQ(verdict->first_error->rule, first_error->rule);
        EXPECT_EQ(verdict->first_error->message, first_error->message);
      }
      EXPECT_EQ(image.lint_for(other), nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, ImageMemoTest, ::testing::Values(5u, 6u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "V" + std::to_string(info.param);
                         });

TEST(ImageMemo, StageGateLintsAnImageForTheControllersDevice) {
  // A Virtex-6 image carries a passing Virtex-6 verdict; a Virtex-5
  // controller must lint it again and reject it exactly as it rejects the
  // plain bitstream.
  bits::GeneratorConfig gen;
  gen.device = bits::kVirtex6Lx240t;
  gen.target_body_bytes = 8 * 1024;
  const std::shared_ptr<const bits::Image> image =
      bits::Image::build(bits::Generator(gen).generate());
  ASSERT_NE(image->lint_for(bits::kVirtex6Lx240t), nullptr);
  EXPECT_FALSE(image->lint_for(bits::kVirtex6Lx240t)->first_error.has_value());

  core::System memo;
  core::System reference;
  ASSERT_EQ(memo.uparc().config().device, bits::kVirtex5Sx50t);
  const Status got = memo.uparc().stage(*image);
  const Status want = reference.uparc().stage(image->bitstream());
  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().cause, ErrorCause::kBadInput);
  EXPECT_EQ(got.error().message, want.error().message);
}

}  // namespace
}  // namespace uparc
