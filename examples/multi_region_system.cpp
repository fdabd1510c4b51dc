// Multi-region PR system: the full stack working together.
//
// A software-defined-radio platform with two reconfigurable slots:
//   * slot_dsp  — alternates FFT and FIR accelerators,
//   * slot_codec — alternates a Viterbi and an LDPC decoder.
// All four module images live compressed in a ModuleLibrary (the external
// bitstream store); the RegionManager relocates each image to its target
// slot on demand and loads it through UPaRC; a frame-level scrubber guards
// slot_dsp against upsets in the background.
#include <cstdio>

#include "core/system.hpp"
#include "region/region_manager.hpp"
#include "scrub/scrubber.hpp"
#include "scrub/seu.hpp"

int main() {
  using namespace uparc;
  using namespace uparc::literals;

  core::System sys;
  (void)sys.set_frequency_blocking(Frequency::mhz(362.5));

  // --- floorplan: two non-overlapping slots --------------------------------
  region::Floorplan fp(bits::kVirtex5Sx50t);
  const bits::FrameAddress dsp_origin{0, 0, 1, 10, 0};
  if (!fp.add_region("slot_dsp", {dsp_origin, 700}).ok()) return 1;
  if (!fp.add_region("slot_codec", {bits::FrameAddress{0, 0, 3, 10, 0}, 700}).ok()) return 1;

  // --- module library: golden images, compressed at rest -------------------
  region::ModuleLibrary lib;
  auto add = [&](const char* name, std::size_t kb, u64 seed) {
    bits::GeneratorConfig g;
    g.target_body_bytes = kb * 1024;
    g.design_name = name;
    g.seed = seed;
    if (!lib.add_module(name, bits::Generator(g).generate()).ok()) std::abort();
  };
  add("fft", 96, 41);
  add("fir", 64, 42);
  add("viterbi", 80, 43);
  add("ldpc", 104, 44);
  std::printf("module library: %zu modules, %zu KB at rest (compressed)\n\n", lib.size(),
              lib.stored_bytes() / 1024);

  region::RegionManager mgr(sys.sim(), "mgr", std::move(fp), lib, sys.uparc(), sys.plane());

  auto load = [&](const char* module, const char* slot) {
    std::optional<region::LoadResult> got;
    mgr.load(module, slot, [&](const region::LoadResult& r) { got = r; });
    sys.sim().run();
    if (!got || !got->success) {
      std::printf("  load %s -> %s FAILED: %s\n", module, slot,
                  got ? got->error.c_str() : "no result");
      return;
    }
    std::printf("  load %-8s -> %-10s %8s  %7.0f MB/s\n", module, slot,
                to_string(got->total_latency()).c_str(),
                got->reconfig.bandwidth().mb_per_sec());
  };

  std::printf("mission phase 1: wideband scan\n");
  load("fft", "slot_dsp");
  load("viterbi", "slot_codec");

  std::printf("\nmission phase 2: narrowband track (swap both slots)\n");
  load("fir", "slot_dsp");
  load("ldpc", "slot_codec");

  std::printf("\noccupancy: slot_dsp=%s slot_codec=%s\n", mgr.occupant("slot_dsp").c_str(),
              mgr.occupant("slot_codec").c_str());

  // --- background scrubbing of the DSP slot --------------------------------
  auto dsp_golden = lib.instantiate("fir", mgr.floorplan(), *mgr.floorplan().find("slot_dsp"));
  if (!dsp_golden.ok()) return 1;
  const std::vector<bits::Frame>& dsp_golden_frames = dsp_golden.value()->bitstream().frames;
  std::vector<bits::FrameAddress> dsp_frames;
  for (const auto& f : dsp_golden_frames) dsp_frames.push_back(f.address);

  scrub::Readback rb(sys.sim(), "rb", sys.icap());
  scrub::ScrubberConfig scfg;
  scfg.mode = scrub::ScrubMode::kFrameRepair;
  scfg.period = TimePs::from_ms(5);
  scrub::Scrubber scrubber(sys.sim(), "scrubber", sys.uparc(), rb,
                           dsp_golden_frames, scfg);
  scrub::SeuInjector seu(sys.sim(), "seu", sys.plane(), dsp_frames, TimePs::from_ms(8), 3);

  std::printf("\nscrubbing slot_dsp (frame-level repair, 5 ms period) under upsets...\n");
  scrubber.start();
  seu.start();
  sys.sim().run_until(sys.sim().now() + TimePs::from_ms(100));
  seu.stop();
  sys.sim().run_until(sys.sim().now() + TimePs::from_ms(10));
  scrubber.stop();
  sys.sim().run();

  const auto& st = scrubber.scrub_stats();
  std::printf("  %llu upsets injected, %llu frames repaired over %llu rounds\n",
              static_cast<unsigned long long>(seu.injected()),
              static_cast<unsigned long long>(st.repairs),
              static_cast<unsigned long long>(st.rounds));
  std::printf("  repair bandwidth spent: %.2f ms readback, %.3f ms rewrite\n",
              st.readback_time.ms(), st.repair_time.ms());
  std::printf("  slot_dsp golden after campaign: %s\n",
              sys.plane().contains(dsp_golden_frames) ? "yes" : "NO");
  return 0;
}
