// Tests for the pre-flight static analysis layer: the bitstream linter
// (property: every generator image lints clean; golden diagnostics per rule
// on corrupted images), the model linter over elaborated System graphs, and
// the Manager's lint_gate.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/bitstream_lint.hpp"
#include "analysis/model_lint.hpp"
#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "bitstream/writer.hpp"
#include "common/units.hpp"
#include "compress/registry.hpp"
#include "core/system.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/topology.hpp"

namespace uparc {
namespace {

using namespace uparc::literals;
using analysis::BitstreamLintOptions;
using analysis::Location;
using analysis::Report;
using analysis::Severity;

bits::PartialBitstream make_image(std::size_t bytes = 16_KiB, u64 seed = 1,
                                  double complexity = 0.5) {
  bits::GeneratorConfig cfg;
  cfg.target_body_bytes = bytes;
  cfg.seed = seed;
  cfg.complexity = complexity;
  return bits::Generator(cfg).generate();
}

/// Body index of the word following the first `type1(kWrite, reg, 1)`
/// header, i.e. the register's payload word.
std::size_t payload_index(const Words& body, bits::ConfigReg reg) {
  const u32 header = bits::type1(bits::Opcode::kWrite, reg, 1);
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == header) return i + 1;
  }
  ADD_FAILURE() << "no type-1 write to reg " << static_cast<u32>(reg);
  return 0;
}

// ---------------------------------------------------------------------------
// Property: generator images lint clean, in every representation.

TEST(BitstreamLint, GeneratorImagesLintCleanAcrossSeedsAndSizes) {
  for (u64 seed : {1ull, 7ull, 42ull}) {
    for (std::size_t kb : {8ull, 64ull}) {
      for (double complexity : {0.1, 0.9}) {
        auto bs = make_image(kb * 1024, seed, complexity);
        Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
        EXPECT_TRUE(r.empty()) << "seed " << seed << " size " << kb
                               << "KiB:\n" << r.render_text();
      }
    }
  }
}

TEST(BitstreamLint, GeneratedFileLintsClean) {
  auto bs = make_image();
  Report r = analysis::lint_file(bits::kVirtex5Sx50t, bits::to_file(bs));
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(BitstreamLint, ContainersLintCleanForEveryRegistryCodec) {
  auto bs = make_image(8_KiB);
  const Bytes packed = words_to_bytes(bs.body);
  for (auto& codec : compress::table1_codecs()) {
    const Bytes container = codec->compress(packed);
    Report r = analysis::lint_container(bits::kVirtex5Sx50t, container);
    EXPECT_TRUE(r.empty()) << std::string(codec->name()) << ":\n" << r.render_text();
  }
}

TEST(BitstreamLint, RegionWindowOptionAcceptsAndRejects) {
  auto bs = make_image(8_KiB);
  BitstreamLintOptions opts;
  opts.region = region::RegionGeometry{bs.frames.front().address,
                                       static_cast<u32>(bs.frames.size())};
  EXPECT_TRUE(analysis::lint_body(bits::kVirtex5Sx50t, bs.body, opts).empty());

  opts.region->origin.column = 50;  // window elsewhere on the die
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body, opts);
  EXPECT_TRUE(r.has("bs.far.region-bounds")) << r.render_text();
}

TEST(BitstreamLint, V6ImageLintsCleanOnV6) {
  bits::GeneratorConfig cfg;
  cfg.device = bits::kVirtex6Lx240t;
  cfg.target_body_bytes = 16_KiB;
  auto bs = bits::Generator(cfg).generate();
  EXPECT_TRUE(analysis::lint_body(bits::kVirtex6Lx240t, bs.body).empty());
  EXPECT_TRUE(
      analysis::lint_body(bits::kVirtex5Sx50t, bs.body).has("bs.idcode.mismatch"));
}

// ---------------------------------------------------------------------------
// Golden diagnostics: one corrupted image per rule.

TEST(BitstreamLint, BadSyncNamesRuleAndOffset) {
  auto bs = make_image();
  std::size_t sync = 0;
  while (bs.body[sync] != bits::kSyncWord) ++sync;
  bs.body[sync] ^= 0x1;
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.preamble.sync");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.kind, Location::Kind::kWord);
  EXPECT_EQ(d->location.offset, sync);  // where the SYNC word should be
}

TEST(BitstreamLint, PadGarbageBeforeSyncWarns) {
  auto bs = make_image();
  bs.body[3] = 0x12345678;
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.preamble.pad");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.offset, 3u);
}

TEST(BitstreamLint, OrphanType2IsAnError) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  const std::size_t at = body.size();
  body.push_back(bits::type2(bits::Opcode::kWrite, 4));
  body.insert(body.end(), 4, 0u);
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  const analysis::Diagnostic* d = r.find("bs.packet.orphan-type2");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->location.offset, at);
}

/// parse_body and relocate walk the same packet reader as the linter: a
/// body with a structural defect must fail both, on that defect. relocate
/// takes its device from the first IDCODE write, so one goes in right
/// after the SYNC word, ahead of the defect.
void expect_parse_and_relocate_reject(const Words& body) {
  auto parsed = bits::parse_body(bits::kVirtex5Sx50t, body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().cause, ErrorCause::kBadInput);
  bits::PartialBitstream bs;
  bs.body = body;
  const auto sync = std::find(bs.body.begin(), bs.body.end(), bits::kSyncWord);
  ASSERT_NE(sync, bs.body.end());
  bs.body.insert(sync + 1, {bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kIdcode, 1),
                            bits::kVirtex5Sx50t.idcode});
  auto moved = bits::relocate(bs, bits::FrameAddress{0, 0, 1, 1, 0});
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.error().message, "relocate: " + parsed.error().message);
}

TEST(BitstreamLint, UnknownPacketTypeNamesRuleAndOffset) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  const std::size_t at = body.size();
  body.push_back(0x60000000u);  // header type 3
  body.push_back(bits::kNoopWord);
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.render_text();
  const analysis::Diagnostic& d = r.diagnostics().front();
  EXPECT_EQ(d.rule, "bs.packet.unknown-type");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.offset, at);
  expect_parse_and_relocate_reject(body);
}

TEST(BitstreamLint, SelectAtEndOfBodyIsDanglingAtTheSelect) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.command(bits::Command::kWcfg);
  Words body = pw.take();
  const std::size_t at = body.size();
  body.push_back(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFdri, 0));
  body.push_back(bits::kNoopWord);  // NOOPs may sit between select and type-2
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.render_text();
  const analysis::Diagnostic& d = r.diagnostics().front();
  EXPECT_EQ(d.rule, "bs.packet.dangling-select");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.offset, at);
  expect_parse_and_relocate_reject(body);
}

TEST(BitstreamLint, SelectBeforeNonType2IsDanglingAtTheIntruder) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.command(bits::Command::kWcfg);
  Words body = pw.take();
  body.push_back(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kFdri, 0));
  body.push_back(bits::kNoopWord);
  const std::size_t at = body.size();
  body.push_back(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  body.push_back(static_cast<u32>(bits::Command::kDesync));
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.render_text();
  const analysis::Diagnostic& d = r.diagnostics().front();
  EXPECT_EQ(d.rule, "bs.packet.dangling-select");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.offset, at);
  expect_parse_and_relocate_reject(body);
}

TEST(BitstreamLint, UnknownRegisterFiresAtTheHeaderBeforeItsOverrun) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  const std::size_t at = body.size();
  body.push_back(bits::type1(bits::Opcode::kWrite, static_cast<bits::ConfigReg>(20), 5));
  body.push_back(0u);  // four of the five declared words are missing
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  ASSERT_EQ(r.diagnostics().size(), 2u) << r.render_text();
  EXPECT_EQ(r.diagnostics()[0].rule, "bs.reg.unknown");
  EXPECT_EQ(r.diagnostics()[0].location.offset, at);
  EXPECT_EQ(r.diagnostics()[1].rule, "bs.packet.overrun");
  EXPECT_EQ(r.diagnostics()[1].location.offset, at);
}

TEST(BitstreamLint, TruncatedPacketNamesRuleAndOffset) {
  auto bs = make_image();
  // Cut the body in the middle of the FDRI payload: the type-2 word count
  // now overruns what is left of the file.
  const std::size_t cut = bs.fdri_offset + bs.fdri_words / 2;
  bs.body.resize(cut);
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.packet.overrun");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.offset, bs.fdri_offset - 1);  // the type-2 header
}

TEST(BitstreamLint, NopWithPayloadCountIsAnError) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(bits::type1(bits::Opcode::kNop, bits::ConfigReg::kCmd, 2));
  body.insert(body.end(), 2, 0u);
  EXPECT_TRUE(analysis::lint_body(bits::kVirtex5Sx50t, body).has("bs.packet.nop-count"));
}

TEST(BitstreamLint, ReadPacketIsAnError) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(bits::type1(bits::Opcode::kRead, bits::ConfigReg::kStat, 0));
  EXPECT_TRUE(analysis::lint_body(bits::kVirtex5Sx50t, body).has("bs.packet.read"));
}

TEST(BitstreamLint, UnknownRegisterAndCommandAreErrors) {
  bits::PacketWriter pw;
  pw.prologue();
  Words body = pw.take();
  body.push_back(bits::type1(bits::Opcode::kWrite, static_cast<bits::ConfigReg>(20), 1));
  body.push_back(0u);
  body.push_back(bits::type1(bits::Opcode::kWrite, bits::ConfigReg::kCmd, 1));
  body.push_back(25u);  // no such CMD opcode
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, body);
  EXPECT_TRUE(r.has("bs.reg.unknown")) << r.render_text();
  EXPECT_TRUE(r.has("bs.cmd.unknown")) << r.render_text();
}

TEST(BitstreamLint, OutOfBoundsFarNamesRuleAndOffset) {
  auto bs = make_image();
  const std::size_t at = payload_index(bs.body, bits::ConfigReg::kFar);
  bits::FrameAddress bad{7, 0, 0, 0, 0};  // block type 7: outside the device
  bs.body[at] = bad.pack();
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.far.device-bounds");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.offset, at);
}

TEST(BitstreamLint, FdriWithoutWcfgIsAnError) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.write_reg(bits::ConfigReg::kFar, 0);
  pw.write_fdri(Words(41, 0u));
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, pw.take());
  EXPECT_TRUE(r.has("bs.fdri.no-wcfg")) << r.render_text();
}

TEST(BitstreamLint, FdriPartialFrameIsAnError) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.command(bits::Command::kWcfg);
  pw.write_fdri(Words(40, 0u));  // one word short of a V5 frame
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, pw.take());
  EXPECT_TRUE(r.has("bs.fdri.alignment")) << r.render_text();
}

TEST(BitstreamLint, CrcMismatchNamesRuleAndOffset) {
  auto bs = make_image();
  bs.body[bs.fdri_offset + 5] ^= 0x40;  // single-bit payload corruption
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.crc.mismatch");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->location.offset, payload_index(bs.body, bits::ConfigReg::kCrc));
}

TEST(BitstreamLint, MissingCrcSeverityFollowsOptions) {
  bits::PacketWriter pw;
  pw.prologue();
  pw.command(bits::Command::kRcrc);
  pw.write_reg(bits::ConfigReg::kIdcode, bits::kVirtex5Sx50t.idcode);
  pw.command(bits::Command::kDesync);
  const Words body = pw.take();

  Report strict = analysis::lint_body(bits::kVirtex5Sx50t, body);
  const analysis::Diagnostic* d = strict.find("bs.crc.missing");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);

  BitstreamLintOptions lax;
  lax.require_crc = false;
  Report relaxed = analysis::lint_body(bits::kVirtex5Sx50t, body, lax);
  ASSERT_TRUE(relaxed.has("bs.crc.missing"));
  EXPECT_EQ(relaxed.find("bs.crc.missing")->severity, Severity::kWarning);
  EXPECT_TRUE(relaxed.clean());
}

TEST(BitstreamLint, MissingDesyncIsAnError) {
  bits::ConfigCrc crc;
  bits::PacketWriter pw;
  pw.prologue();
  pw.command(bits::Command::kRcrc);
  crc.reset();
  pw.write_reg(bits::ConfigReg::kIdcode, bits::kVirtex5Sx50t.idcode);
  crc.write(bits::ConfigReg::kIdcode, bits::kVirtex5Sx50t.idcode);
  pw.write_crc(crc.value());
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, pw.take());
  EXPECT_TRUE(r.has("bs.epilogue.desync")) << r.render_text();
}

TEST(BitstreamLint, TrailerGarbageAfterDesyncWarns) {
  auto bs = make_image();
  bs.body.push_back(0xDEADBEEFu);
  Report r = analysis::lint_body(bits::kVirtex5Sx50t, bs.body);
  const analysis::Diagnostic* d = r.find("bs.epilogue.trailer");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->location.offset, bs.body.size() - 1);
}

TEST(BitstreamLint, EmptyBodyIsAnError) {
  EXPECT_TRUE(analysis::lint_body(bits::kVirtex5Sx50t, Words{}).has("bs.preamble.sync"));
}

TEST(BitstreamLint, GarbageFileFailsHeaderRule) {
  const Bytes junk(64, 0x5A);
  EXPECT_TRUE(analysis::lint_file(bits::kVirtex5Sx50t, junk).has("bs.file.header"));
}

// ---------------------------------------------------------------------------
// Container (ct.*) rules.

TEST(ContainerLint, TruncatedHeader) {
  const Bytes stub = {0xC5, 0x01, 0x00};
  Report r = analysis::lint_container(bits::kVirtex5Sx50t, stub);
  const analysis::Diagnostic* d = r.find("ct.header.truncated");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->location.kind, Location::Kind::kByte);
}

TEST(ContainerLint, BadMagicNamesRuleAtByteZero) {
  auto bs = make_image(8_KiB);
  Bytes container =
      compress::make_codec(compress::CodecId::kRle)->compress(words_to_bytes(bs.body));
  container[0] = 0x00;
  Report r = analysis::lint_container(bits::kVirtex5Sx50t, container);
  const analysis::Diagnostic* d = r.find("ct.header.magic");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->location.offset, 0u);
}

TEST(ContainerLint, UnknownCodecIdNamesRuleAtByteOne) {
  auto bs = make_image(8_KiB);
  Bytes container =
      compress::make_codec(compress::CodecId::kRle)->compress(words_to_bytes(bs.body));
  container[1] = 99;
  Report r = analysis::lint_container(bits::kVirtex5Sx50t, container);
  const analysis::Diagnostic* d = r.find("ct.header.codec");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->location.offset, 1u);
}

TEST(ContainerLint, ZeroDeclaredSizeIsAnError) {
  Bytes stub = {0xC5, 0x01, 0x00, 0x00, 0x00, 0x00};
  EXPECT_TRUE(
      analysis::lint_container(bits::kVirtex5Sx50t, stub).has("ct.header.size"));
}

TEST(ContainerLint, TruncatedPayloadFailsDryDecode) {
  auto bs = make_image(8_KiB);
  Bytes container = compress::make_codec(compress::CodecId::kXMatchPro)
                        ->compress(words_to_bytes(bs.body));
  container.resize(compress::wire::kHeaderBytes + 4);
  Report r = analysis::lint_container(bits::kVirtex5Sx50t, container);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.has("ct.payload.decode") || r.has("ct.payload.size"))
      << r.render_text();
}

// ---------------------------------------------------------------------------
// Rendering.

TEST(Diagnostics, TextAndJsonRendering) {
  Report r;
  r.error("bs.crc.mismatch", Location::word(5), "embedded \"CRC\" wrong", "regenerate");
  r.warning("md.fifo.same-domain", Location::module("uparc.decomp"), "same domain");
  const std::string text = r.render_text();
  EXPECT_NE(text.find("error bs.crc.mismatch @ word 5"), std::string::npos) << text;
  EXPECT_NE(text.find("[hint: regenerate]"), std::string::npos);

  const std::string json = r.render_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"rule\": \"bs.crc.mismatch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"CRC\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(json.find("\"location\": \"module uparc.decomp\""), std::string::npos);
  EXPECT_EQ(analysis::Report{}.render_json(), "[]\n");
}

// ---------------------------------------------------------------------------
// Model linter.

struct Probe : sim::Module {
  Probe(sim::Simulation& s, std::string n) : Module(s, std::move(n)) {}
  using Module::bind_clock;
  using Module::require_clock;
};

TEST(ModelLint, FreshSystemModelIsClean) {
  core::System sys;
  Report r = analysis::lint_model(sys.sim());
  EXPECT_TRUE(r.empty()) << r.render_text();
}

TEST(ModelLint, SystemTopologyRegistersCoreGraph) {
  core::System sys;
  const sim::Topology& topo = sys.sim().topology();
  EXPECT_FALSE(topo.modules().empty());
  EXPECT_FALSE(topo.clocks().empty());
  // The UReC <-> decompressor crossings are declared as FIFO channels.
  ASSERT_EQ(topo.channels().size(), 2u);
  for (const auto& ch : topo.channels()) {
    EXPECT_TRUE(ch.has_fifo);
    EXPECT_NE(ch.producer_clock, ch.consumer_clock);
  }
}

TEST(ModelLint, UnclockedModuleIsFlagged) {
  sim::Simulation sim;
  Probe p(sim, "orphan");
  p.require_clock();
  Report r = analysis::lint_model(sim);
  const analysis::Diagnostic* d = r.find("md.module.unclocked");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->location.path, "orphan");

  sim::Clock clk(sim, "clk", Frequency::mhz(100));
  p.bind_clock(clk);
  EXPECT_FALSE(analysis::lint_model(sim).has("md.module.unclocked"));
}

TEST(ModelLint, CdcWithoutFifoIsFlaggedAndFifoFixesIt) {
  sim::Simulation sim;
  sim::Clock a(sim, "clk_a", Frequency::mhz(100));
  sim::Clock b(sim, "clk_b", Frequency::mhz(250));
  Probe p(sim, "producer"), c(sim, "consumer");
  p.bind_clock(a);
  c.bind_clock(b);

  sim.topology().declare_channel({&p, &a, &c, &b, "", false});
  Report bare = analysis::lint_model(sim);
  const analysis::Diagnostic* d = bare.find("md.cdc.no-fifo");
  ASSERT_NE(d, nullptr) << bare.render_text();
  EXPECT_EQ(d->severity, Severity::kError);

  sim.topology().declare_channel({&p, &a, &c, &b, "sync_fifo", true});
  Report with = analysis::lint_model(sim);
  EXPECT_EQ(with.count(Severity::kError), 1u);  // only the bare channel
}

TEST(ModelLint, SameDomainFifoWarns) {
  sim::Simulation sim;
  sim::Clock a(sim, "clk_a", Frequency::mhz(100));
  Probe p(sim, "producer"), c(sim, "consumer");
  p.bind_clock(a);
  c.bind_clock(a);
  sim.topology().declare_channel({&p, &a, &c, &a, "pointless", true});
  Report r = analysis::lint_model(sim);
  const analysis::Diagnostic* d = r.find("md.fifo.same-domain");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(ModelLint, FifoWithUnclockedEndpointIsAnError) {
  sim::Simulation sim;
  sim::Clock a(sim, "clk_a", Frequency::mhz(100));
  Probe p(sim, "producer"), c(sim, "consumer");
  p.bind_clock(a);
  sim.topology().declare_channel({&p, &a, &c, nullptr, "half_bound", true});
  EXPECT_TRUE(analysis::lint_model(sim).has("md.fifo.unclocked-endpoint"));
}

TEST(ModelLint, DeadEnGateIsFlagged) {
  sim::Simulation sim;
  sim::Clock clk(sim, "starved", Frequency::mhz(100));
  clk.on_rising([] {});
  clk.set_supplied(false);  // DCM never locked
  clk.enable();             // consumer asserts EN anyway
  Report r = analysis::lint_model(sim);
  const analysis::Diagnostic* d = r.find("md.gate.dead");
  ASSERT_NE(d, nullptr) << r.render_text();
  EXPECT_EQ(d->location.path, "starved");
}

TEST(ModelLint, FreeRunningClockIsFlagged) {
  sim::Simulation sim;
  sim::Clock clk(sim, "idle_burner", Frequency::mhz(100));
  clk.enable();  // supplied by default, zero subscribers
  EXPECT_TRUE(analysis::lint_model(sim).has("md.clock.free-running"));
  clk.disable();
  EXPECT_TRUE(analysis::lint_model(sim).empty());
}

TEST(ModelLint, DestructionDeregistersFromTopology) {
  sim::Simulation sim;
  {
    sim::Clock clk(sim, "clk", Frequency::mhz(100));
    Probe p(sim, "transient");
    p.bind_clock(clk);
    sim.topology().declare_channel({&p, &clk, &p, &clk, "loop", true});
    EXPECT_EQ(sim.topology().modules().size(), 1u);
    EXPECT_EQ(sim.topology().bindings().size(), 1u);
  }
  EXPECT_TRUE(sim.topology().modules().empty());
  EXPECT_TRUE(sim.topology().clocks().empty());
  EXPECT_TRUE(sim.topology().bindings().empty());
  EXPECT_TRUE(sim.topology().channels().empty());
  EXPECT_TRUE(analysis::lint_model(sim).empty());
}

// ---------------------------------------------------------------------------
// The Manager's lint_gate.

TEST(LintGate, AcceptsCleanImage) {
  core::System sys;
  EXPECT_TRUE(sys.stage(make_image()).ok());
}

TEST(LintGate, RejectsBadSyncBeforeStaging) {
  core::System sys;
  auto bs = make_image();
  std::size_t sync = 0;
  while (bs.body[sync] != bits::kSyncWord) ++sync;
  bs.body[sync] ^= 0x1;  // not a pad word, so the offset names this spot
  Status st = sys.stage(bs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().cause, ErrorCause::kBadInput);
  EXPECT_NE(st.error().message.find("bs.preamble.sync"), std::string::npos)
      << st.error().message;
  EXPECT_NE(st.error().message.find("word " + std::to_string(sync)), std::string::npos);
}

TEST(LintGate, RejectsTruncatedPacket) {
  core::System sys;
  auto bs = make_image();
  bs.body.resize(bs.fdri_offset + bs.fdri_words / 2);
  Status st = sys.stage(bs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().cause, ErrorCause::kBadInput);
  EXPECT_NE(st.error().message.find("bs.packet.overrun"), std::string::npos);
}

TEST(LintGate, RejectsOutOfBoundsFar) {
  core::System sys;
  auto bs = make_image();
  bs.body[payload_index(bs.body, bits::ConfigReg::kFar)] =
      bits::FrameAddress{7, 0, 0, 0, 0}.pack();
  Status st = sys.stage(bs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().cause, ErrorCause::kBadInput);
  EXPECT_NE(st.error().message.find("bs.far.device-bounds"), std::string::npos);
}

TEST(LintGate, RejectsCrcMismatch) {
  core::System sys;
  auto bs = make_image();
  bs.body[bs.fdri_offset + 3] ^= 0x4;
  Status st = sys.stage(bs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().cause, ErrorCause::kBadInput);
  EXPECT_NE(st.error().message.find("bs.crc.mismatch"), std::string::npos);
}

TEST(LintGate, DisabledGateLetsBadImageThroughToRuntime) {
  core::SystemConfig cfg;
  cfg.uparc.lint_gate = false;
  core::System sys(cfg);
  auto bs = make_image();
  bs.body[bs.fdri_offset + 3] ^= 0x4;  // CRC now wrong
  // Staging succeeds (the gate is off); the corruption is only caught at
  // run time, by the ICAP's CRC check.
  ASSERT_TRUE(sys.stage(bs).ok());
  auto r = sys.reconfigure_blocking();
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.cause, ErrorCause::kCrcMismatch);
}

}  // namespace
}  // namespace uparc
