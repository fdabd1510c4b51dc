// perfbench: host-time cost of the UPaRC simulator on three workloads, plus
// an outside-in ledger of its layers. Built and driven by perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload is a closed loop with one client: the next operation starts
// when the previous one returns. Inputs come from --seed only (the same seed
// gives the same inputs); each operation draws fresh inputs from it.
//
//   reconfig     stage + reconfigure one 247 KB partial bitstream at
//                362.5 MHz on one controller (the paper's Table III UPaRC-i
//                point). Work item: one reconfiguration.
//   fleet        one faulted 8-device serve soak per operation: 600
//                requests at 2x rated load on the sequential fleet path
//                (workers = 0). Work item: one completed request.
//   fleet_par    the same soaks on the sharded barrier-epoch executor with
//                4 worker threads.
//
// How much work a soak does depends on its seed (how many requests the
// faulted fleet completes varies severalfold), so times are reported per
// work item, not per operation. The reported time is the lower quartile of
// a run's per-item times: a shared host slows down by a third or more for
// seconds to minutes at a time, and the fastest quarter of a run moves less
// with such a slowdown than its median or mean do, as long as the slowdown
// covers less of the run.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload for
// half the time (its outputs are still checked) and spends the other half
// timing each layer through its own API on the workload's bitstream images:
// the per-layer ledger. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "cache/bitstream_cache.hpp"
#include "compress/registry.hpp"
#include "core/system.hpp"
#include "obs/telemetry.hpp"
#include "scrub/readback.hpp"
#include "serve/soak.hpp"
#include "sim/clock.hpp"
#include "sim/parallel.hpp"
#include "txn/wal.hpp"

namespace {

using namespace uparc;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Seed of input `index` in a run: splitmix64 of the run seed, folded into
/// [1, 2^31) because the simulator scales seeds (seed * 1000 + module).
u64 derive_seed(u64 seed, u64 index) {
  u64 z = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return 1 + z % 0x7FFFFFFFULL;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// First failed requirement of one operation (empty = the op was correct).
struct Verdict {
  std::string error;
  void require(bool ok, const std::string& what) {
    if (!ok && error.empty()) error = what;
  }
};

/// What one run measured and checked.
struct Run {
  u64 attempted = 0;
  u64 failed = 0;
  bool consistent = true;  ///< run-level checks (replays, layer outputs)
  /// Per operation: its host time / its work items (reconfigurations or
  /// completed requests).
  std::vector<double> item_ms;
  std::vector<double> setup_s;

  void settle(const Verdict& v) {
    ++attempted;
    if (v.error.empty()) return;
    if (failed++ < 5) {
      std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                   static_cast<unsigned long long>(attempted), v.error.c_str());
    }
  }
  void inconsistent(const std::string& what) {
    consistent = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  void add_op(double s, double work_items) {
    item_ms.push_back(s * 1e3 / std::max(work_items, 1.0));
  }
};

std::vector<bits::PartialBitstream> make_images(u64 seed, u64 first_index, unsigned count,
                                                std::size_t bytes) {
  std::vector<bits::PartialBitstream> images;
  for (unsigned i = 0; i < count; ++i) {
    bits::GeneratorConfig cfg;
    cfg.target_body_bytes = bytes;
    cfg.seed = derive_seed(seed, first_index + i);
    cfg.design_name = "pb" + std::to_string(i);
    images.push_back(bits::Generator(cfg).generate());
  }
  return images;
}

// ---------------------------------------------------------------------------
// reconfig

constexpr std::size_t kReconfigBytes = 247 * 1024;
constexpr unsigned kReconfigImages = 4;
constexpr unsigned kReconfigRounds = 8;
constexpr double kReconfigMhz = 362.5;
// Table III, UPaRC-i: 1433 MB/s for a 247 KB bitstream at 362.5 MHz (the
// tolerance tests/paper_points_test.cpp uses).
constexpr double kPaperMbps = 1433.0;
constexpr double kPaperMbpsTolerance = 15.0;

/// Rounds of: set-up (fresh images, System, clock programmed), then
/// reconfigurations cycling through the images until the round's share of
/// the budget is spent.
void run_reconfig(u64 seed, double budget_s, Run& run) {
  const auto start = SteadyClock::now();
  for (unsigned round = 0; round < kReconfigRounds; ++round) {
    const auto t0 = SteadyClock::now();
    const std::vector<bits::PartialBitstream> images =
        make_images(seed, u64{round} * kReconfigImages, kReconfigImages, kReconfigBytes);
    auto sys = std::make_unique<core::System>();
    const bool clocked = sys->set_frequency_blocking(Frequency::mhz(kReconfigMhz)).has_value();
    run.setup_s.push_back(seconds_since(t0));
    if (!clocked) run.inconsistent("362.5 MHz is not synthesizable");

    const double round_end_s = budget_s * (round + 1) / kReconfigRounds;
    std::vector<TimePs> first_duration(kReconfigImages);
    unsigned i = 0;
    do {
      const bits::PartialBitstream& bs = images[i % kReconfigImages];
      const auto op0 = SteadyClock::now();
      const Status staged = sys->stage(bs);
      const ctrl::ReconfigResult r =
          staged.ok() ? sys->reconfigure_blocking() : ctrl::ReconfigResult{};
      run.add_op(seconds_since(op0), 1.0);

      Verdict v;
      v.require(staged.ok(), "stage failed");
      v.require(r.success, "reconfiguration failed: " + r.error);
      if (r.success) {
        v.require(std::abs(r.bandwidth().mb_per_sec() - kPaperMbps) <= kPaperMbpsTolerance,
                  "bandwidth off the paper point");
        TimePs& first = first_duration[i % kReconfigImages];
        if (first == TimePs{}) first = r.duration();
        v.require(r.duration() == first, "simulated duration not repeatable");
      }
      v.require(sys->plane().contains(bs.frames), "config plane does not hold the image");
      run.settle(v);
      ++i;
    } while (seconds_since(start) < round_end_s);
  }
}

// ---------------------------------------------------------------------------
// fleet, fleet_par

constexpr unsigned kFleetDevices = 8;
constexpr u64 kFleetRequests = 600;
constexpr unsigned kParallelWorkers = 4;

struct Soak {
  std::unique_ptr<serve::FrontEnd> fe;
  std::unique_ptr<serve::WorkloadGenerator> gen;
};

/// Builds and calibrates the fleet and its tenant mix: the bench/
/// parallel_fleet scenario without the restart drill, whose cost does not
/// scale with the requests served.
Soak build_soak(u64 soak_seed, unsigned workers) {
  serve::FrontEndConfig fe_cfg;
  fe_cfg.seed = soak_seed;
  fe_cfg.devices = kFleetDevices;
  fe_cfg.fault_scale = 1.0;
  fe_cfg.workers = workers;

  serve::ServeSoakConfig soak_cfg;
  soak_cfg.seed = soak_seed;
  soak_cfg.requests = kFleetRequests;
  soak_cfg.devices = kFleetDevices;
  soak_cfg.load_factor = 2.0;
  soak_cfg.fault_scale = 1.0;

  Soak s;
  s.fe = std::make_unique<serve::FrontEnd>(fe_cfg);
  s.gen = std::make_unique<serve::WorkloadGenerator>(
      serve::make_tenants(soak_cfg, s.fe->rated_rps(), s.fe->warm_cost()),
      fe_cfg.modules, soak_seed);
  return s;
}

/// Checks the per-request contract serve::run_soak asserts over a finished
/// soak; returns how many requests completed.
u64 check_soak(const Soak& s, Verdict& v) {
  for (const std::string& what : s.fe->violations()) v.require(false, what);
  u64 terminals = 0;
  u64 completed = 0;
  for (const serve::RequestRecord& rec : s.fe->records()) {
    if (rec.outcome == serve::Outcome::kPending) {
      v.require(false, "request never terminated");
      continue;
    }
    ++terminals;
    v.require(rec.terminal_events == 1, "request terminated more than once");
    v.require(rec.finished >= rec.req.arrival, "terminal before arrival");
    if (rec.outcome == serve::Outcome::kCompleted) {
      ++completed;
      v.require(rec.deadline_miss == (rec.finished > rec.req.deadline),
                "inconsistent deadline accounting");
    }
  }
  v.require(terminals == s.gen->issued(), "issued requests without a terminal state");
  v.require(completed > 0, "no request completed");
  return completed;
}

void run_fleet(u64 seed, double budget_s, unsigned workers, Run& run) {
  const auto start = SteadyClock::now();
  std::string first_metrics;
  u64 op = 0;
  do {
    const auto t0 = SteadyClock::now();
    Soak s = build_soak(derive_seed(seed, op), workers);
    run.setup_s.push_back(seconds_since(t0));

    const auto t1 = SteadyClock::now();
    s.fe->run(*s.gen, kFleetRequests);
    const double run_s = seconds_since(t1);

    Verdict v;
    const u64 completed = check_soak(s, v);
    run.add_op(run_s, static_cast<double>(completed));
    run.settle(v);
    if (op == 0) first_metrics = s.fe->metrics().render_json();
    ++op;
  } while (seconds_since(start) < budget_s);

  // Determinism: the first soak replayed must render byte-identical metrics.
  // A parallel workload replays on one worker, the executor's 1-vs-N contract.
  Soak replay = build_soak(derive_seed(seed, 0), workers == 0 ? 0 : 1);
  replay.fe->run(*replay.gen, kFleetRequests);
  if (replay.fe->metrics().render_json() != first_metrics) {
    run.inconsistent("replayed soak rendered different metrics");
  }
}

// ---------------------------------------------------------------------------
// Layer ledger (--trace 1): each layer timed through its own API.

/// Work each ledger call covers at least, so small images still give calls
/// long enough to time.
constexpr double kProbeBytes = 1 << 20;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Calls `rep` until `slice_s` has passed, at least three times.
void repeat_for(double slice_s, const std::function<void()>& rep) {
  const auto start = SteadyClock::now();
  for (int n = 0; n < 3 || seconds_since(start) < slice_s; ++n) rep();
}

/// Median rate of `rep`, which returns the work units one call did.
double median_rate(double slice_s, const std::function<double()>& rep) {
  std::vector<double> rates;
  repeat_for(slice_s, [&] {
    const auto t0 = SteadyClock::now();
    const double work = rep();
    rates.push_back(work / std::max(seconds_since(t0), 1e-9));
  });
  return median(std::move(rates));
}

struct Covered {
  double images = 0.0;
  double bytes = 0.0;
};

/// Applies `fn` to the images round-robin until kProbeBytes are covered.
Covered over_images(const std::vector<bits::PartialBitstream>& images,
                    const std::function<void(const bits::PartialBitstream&)>& fn) {
  Covered c;
  while (c.bytes < kProbeBytes) {
    for (const bits::PartialBitstream& bs : images) {
      fn(bs);
      c.bytes += static_cast<double>(bs.body_bytes());
      c.images += 1.0;
    }
  }
  return c;
}

std::string metric_token(std::string_view codec_name) {
  std::string out;
  for (char c : codec_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

/// The images the workload itself streams: 247 KB bitstreams for reconfig,
/// the fleet's 8 KB module set.
std::vector<bits::PartialBitstream> workload_images(const std::string& workload, u64 seed) {
  if (workload == "reconfig") return make_images(seed, 0, kReconfigImages, kReconfigBytes);
  return make_images(seed, 0, 4, 8 * 1024);
}

std::vector<Metric> run_ledger(const std::string& workload, u64 seed, double budget_s,
                               Run& run) {
  const std::vector<bits::PartialBitstream> images = workload_images(workload, seed);
  const bits::Device device = bits::GeneratorConfig{}.device;
  const auto codecs = compress::table1_codecs();
  constexpr unsigned kFixedProbes = 13;
  const double slice_s = budget_s / static_cast<double>(kFixedProbes + codecs.size());
  std::vector<Metric> out;
  auto check = [&run](bool ok, const std::string& what) {
    if (!ok) run.inconsistent(what);
  };

  // sim kernel: one self-rescheduling event chain.
  out.push_back({"kernel_events_per_s", median_rate(slice_s, [&] {
                   constexpr u64 kEvents = 100'000;
                   sim::Simulation sim;
                   u64 count = 0;
                   std::function<void()> tick = [&] {
                     if (++count < kEvents) sim.schedule_in(TimePs(1000), tick);
                   };
                   sim.schedule_at(TimePs(0), tick);
                   sim.run();
                   check(sim.events_executed() == kEvents, "kernel dropped events");
                   return static_cast<double>(kEvents);
                 }),
                 "1/s"});

  // sim clock: rising edges delivered to one subscriber.
  out.push_back({"clock_cycles_per_s", median_rate(slice_s, [&] {
                   constexpr u64 kCycles = 100'000;
                   sim::Simulation sim;
                   sim::Clock clk(sim, "clk", Frequency::mhz(kReconfigMhz));
                   u64 cycles = 0;
                   clk.on_rising([&] {
                     if (++cycles >= kCycles) clk.disable();
                   });
                   clk.enable();
                   sim.run();
                   check(cycles == kCycles, "clock dropped edges");
                   return static_cast<double>(kCycles);
                 }),
                 "1/s"});

  // bitstream generator: the set-up cost of every workload.
  u64 gen_index = 1000;
  out.push_back({"generate_mb_per_s", median_rate(slice_s, [&] {
                   double bytes = 0.0;
                   while (bytes < kProbeBytes) {
                     bytes += static_cast<double>(
                         make_images(seed, gen_index++, 1, images.front().body_bytes())
                             .front()
                             .body_bytes());
                   }
                   return bytes / 1e6;
                 }),
                 "MB/s"});

  // common CRC32 over the image bodies.
  out.push_back({"crc32_mb_per_s", median_rate(slice_s, [&] {
                   return over_images(images, [](const bits::PartialBitstream& bs) {
                            (void)crc32_words(bs.body);
                          }).bytes / 1e6;
                 }),
                 "MB/s"});

  // bitstream parser and relocator.
  for (const bits::PartialBitstream& bs : images) {
    Result<bits::ParsedBody> parsed = bits::parse_body(device, bs.body);
    check(parsed.ok() && parsed.value().frames.size() == bs.frames.size() &&
              parsed.value().crc_ok,
          "parser disagrees with the generator");
  }
  out.push_back({"parse_mb_per_s", median_rate(slice_s, [&] {
                   return over_images(images, [&](const bits::PartialBitstream& bs) {
                            (void)bits::parse_body(device, bs.body);
                          }).bytes / 1e6;
                 }),
                 "MB/s"});

  const bits::FrameAddress relocated_origin{0, 0, 0, 1, 0};
  for (const bits::PartialBitstream& bs : images) {
    Result<bits::PartialBitstream> moved = bits::relocate(bs, relocated_origin);
    check(moved.ok() && moved.value().frames.size() == bs.frames.size() &&
              moved.value().frames.front().address.pack() == relocated_origin.pack(),
          "relocation failed");
  }
  out.push_back({"relocate_mb_per_s", median_rate(slice_s, [&] {
                   return over_images(images, [&](const bits::PartialBitstream& bs) {
                            (void)bits::relocate(bs, relocated_origin);
                          }).bytes / 1e6;
                 }),
                 "MB/s"});

  // scrub golden signatures and cache keys (both hash every frame).
  for (const bits::PartialBitstream& bs : images) {
    check(scrub::GoldenSignature(bs.frames).frame_count() == bs.frames.size(),
          "golden signature lost frames");
    check(cache::key_of(bs) == cache::key_of(bs), "cache key not repeatable");
  }
  out.push_back({"golden_signatures_per_s", median_rate(slice_s, [&] {
                   return over_images(images, [](const bits::PartialBitstream& bs) {
                            (void)scrub::GoldenSignature(bs.frames);
                          }).images;
                 }),
                 "1/s"});
  out.push_back({"cache_keys_per_s", median_rate(slice_s, [&] {
                   return over_images(images, [](const bits::PartialBitstream& bs) {
                            (void)cache::key_of(bs);
                          }).images;
                 }),
                 "1/s"});

  // compress: every Table I codec decodes the first image (container built
  // untimed).
  const Bytes raw = words_to_bytes(images.front().body);
  for (const auto& codec : codecs) {
    const Bytes packed = codec->compress(raw);
    Result<Bytes> back = codec->decompress(packed);
    check(back.ok() && back.value() == raw,
          std::string(codec->name()) + " does not round-trip");
    out.push_back({"decode_" + metric_token(codec->name()) + "_mb_per_s",
                   median_rate(slice_s,
                               [&] {
                                 double bytes = 0.0;
                                 while (bytes < kProbeBytes) {
                                   (void)codec->decompress(packed);
                                   bytes += static_cast<double>(raw.size());
                                 }
                                 return bytes / 1e6;
                               }),
                   "MB/s"});
  }

  // core: one reconfiguration of a workload image split into Uparc::stage
  // (lint gate, preload set-up) and reconfigure_blocking (simulated preload
  // and streaming), with the kernel events the latter executes.
  core::System plain;
  check(plain.set_frequency_blocking(Frequency::mhz(kReconfigMhz)).has_value(),
        "362.5 MHz is not synthesizable");
  std::vector<double> stage_us;
  std::vector<double> run_us;
  std::vector<double> run_events;
  std::size_t next_image = 0;
  repeat_for(slice_s, [&] {
    const bits::PartialBitstream& bs = images[next_image++ % images.size()];
    const auto t0 = SteadyClock::now();
    const bool staged = plain.stage(bs).ok();
    stage_us.push_back(seconds_since(t0) * 1e6);
    const u64 events0 = plain.sim().events_executed();
    const auto t1 = SteadyClock::now();
    const bool ran = staged && plain.reconfigure_blocking().success;
    run_us.push_back(seconds_since(t1) * 1e6);
    run_events.push_back(static_cast<double>(plain.sim().events_executed() - events0));
    check(ran, "ledger reconfiguration failed");
  });
  out.push_back({"reconfig_stage_us", median(stage_us), "us"});
  out.push_back({"reconfig_run_us", median(run_us), "us"});
  out.push_back({"reconfig_events", median(run_events), "count"});

  // txn: one journaled load (forward, readback verify, commit) on a cached
  // controller, as every fleet device performs it.
  core::SystemConfig cached_cfg;
  cached_cfg.with_cache = true;
  core::System cached(cached_cfg);
  std::vector<double> txn_us;
  std::vector<double> txn_events;
  repeat_for(slice_s, [&] {
    const bits::PartialBitstream& bs = images[next_image++ % images.size()];
    const u64 events0 = cached.sim().events_executed();
    const auto t0 = SteadyClock::now();
    const txn::TxnOutcome outcome = cached.run_transaction_blocking("r0", "m0", bs);
    txn_us.push_back(seconds_since(t0) * 1e6);
    txn_events.push_back(static_cast<double>(cached.sim().events_executed() - events0));
    check(outcome.committed, "ledger transaction did not commit");
  });
  out.push_back({"txn_load_us", median(txn_us), "us"});
  out.push_back({"txn_load_events", median(txn_events), "count"});

  // txn WAL: golden-record-sized appends to the in-memory log device.
  std::string payload = "{\"frames\":[";
  for (std::size_t f = 0; f < std::min<std::size_t>(images.front().frames.size(), 32); ++f) {
    const bits::Frame& frame = images.front().frames[f];
    payload += (f == 0 ? "[" : ",[") + std::to_string(frame.address.pack()) + "," +
               std::to_string(crc32_words(frame.data)) + "]";
  }
  payload += "]}";
  sim::Simulation wal_sim;
  constexpr u64 kAppends = 2048;
  out.push_back({"wal_appends_per_s", median_rate(slice_s, [&] {
                   txn::MemWalStorage store;
                   txn::Wal wal(wal_sim, "wal", store);
                   for (u64 a = 0; a < kAppends; ++a) {
                     wal.append(txn::WalRecordType::kGolden, payload);
                   }
                   const txn::WalScan scan = txn::scan_wal(store.read_all());
                   check(scan.records.size() == kAppends &&
                             scan.tail == txn::WalTailState::kClean,
                         "WAL lost records");
                   return static_cast<double>(kAppends);
                 }),
                 "1/s"});

  // obs telemetry: sampling the registry of the controller that has just
  // run those transactions.
  obs::TelemetrySampler sampler;
  sampler.add_source(&cached.metrics(), {{"device", "d0"}});
  u64 tick = 0;
  constexpr u64 kSamples = 256;
  out.push_back({"telemetry_samples_per_s", median_rate(slice_s, [&] {
                   for (u64 k = 0; k < kSamples; ++k) {
                     sampler.sample(TimePs::from_us(250.0 * static_cast<double>(++tick)));
                   }
                   return static_cast<double>(kSamples);
                 }),
                 "1/s"});
  check(sampler.ticks() == tick && !sampler.series().empty(), "telemetry lost ticks");

  // sim executor: barrier cost of one epoch over the fleet's 8 idle shards.
  {
    std::vector<std::unique_ptr<sim::Simulation>> shards;
    sim::ParallelExecutor executor(kParallelWorkers);
    for (unsigned d = 0; d < kFleetDevices; ++d) {
      shards.push_back(std::make_unique<sim::Simulation>());
      executor.add_shard(shards.back().get(), "d" + std::to_string(d));
    }
    executor.start();
    u64 epoch = 0;
    constexpr u64 kEpochs = 200;
    std::vector<TimePs> targets(kFleetDevices);
    const double epochs_per_s = median_rate(slice_s, [&] {
      for (u64 e = 0; e < kEpochs; ++e) {
        targets.assign(kFleetDevices, TimePs::from_ns(static_cast<double>(++epoch)));
        executor.run_epoch(targets);
      }
      return static_cast<double>(kEpochs);
    });
    check(executor.stats().epochs == epoch, "executor lost epochs");
    executor.stop();
    out.push_back({"executor_epoch_us", 1e6 / epochs_per_s, "us"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Heap accounting: every operator new and delete of the process goes through
// the replacements at the end of this file. While a HeapCount is alive they
// count live heap bytes and keep the peak; otherwise they cost one relaxed
// load. Timed operations never count. Peak RSS is not reported: it depends
// on whether glibc reuses an 8 MB staging buffer of a cached controller or
// maps a fresh one, and the same fleet workload read 74 MB on some seeds and
// 81 MB on others.

std::atomic<bool> g_heap_counting{false};
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};

void* heap_alloc(std::size_t bytes, std::size_t align) noexcept {
  bytes = std::max<std::size_t>(bytes, 1);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p != nullptr && g_heap_counting.load(std::memory_order_relaxed)) {
    const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live = g_heap_live.fetch_add(size, std::memory_order_relaxed) + size;
    std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_heap_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void* heap_alloc_or_throw(std::size_t bytes, std::size_t align) {
  void* p = heap_alloc(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void heap_free(void* p) noexcept {
  if (p != nullptr && g_heap_counting.load(std::memory_order_relaxed)) {
    g_heap_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                          std::memory_order_relaxed);
  }
  std::free(p);
}

/// Counts the heap from construction to destruction. Frees of blocks
/// allocated before it started lower the count, so the peak is that of what
/// the counted code itself holds.
class HeapCount {
 public:
  HeapCount() {
    g_heap_live.store(0);
    g_heap_peak.store(0);
    g_heap_counting.store(true);
  }
  ~HeapCount() { g_heap_counting.store(false); }
  HeapCount(const HeapCount&) = delete;
  HeapCount& operator=(const HeapCount&) = delete;

  [[nodiscard]] double peak_mib() const {
    return static_cast<double>(g_heap_peak.load()) / (1 << 20);
  }
};

/// Peak live heap of one more operation of the workload, set-up included,
/// run untimed after the timed ones.
double operation_peak_heap_mib(const std::string& workload, u64 seed) {
  const HeapCount count;
  if (workload == "reconfig") {
    const std::vector<bits::PartialBitstream> images =
        make_images(seed, 0, kReconfigImages, kReconfigBytes);
    core::System sys;
    (void)sys.set_frequency_blocking(Frequency::mhz(kReconfigMhz));
    for (const bits::PartialBitstream& bs : images) {
      if (sys.stage(bs).ok()) (void)sys.reconfigure_blocking();
    }
  } else {
    Soak s = build_soak(derive_seed(seed, 0), workload == "fleet" ? 0 : kParallelWorkers);
    s.fe->run(*s.gen, kFleetRequests);
  }
  return count.peak_mib();
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload reconfig|fleet|fleet_par "
               "--seed N --seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) usage("--trace takes 0 or 1");
    } else {
      usage("unknown option " + key);
    }
    if (end != nullptr && *end != '\0') usage("bad number for " + key);
  }
  if (a.workload != "reconfig" && a.workload != "fleet" && a.workload != "fleet_par") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void run_workload(const Args& a, double budget_s, Run& run) {
  if (a.workload == "reconfig") {
    run_reconfig(a.seed, budget_s, run);
  } else if (a.workload == "fleet") {
    run_fleet(a.seed, budget_s, 0, run);
  } else {
    run_fleet(a.seed, budget_s, kParallelWorkers, run);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Run run;
  std::vector<Metric> metrics;
  if (args.trace) {
    run_workload(args, args.seconds / 2, run);
    metrics = run_ledger(args.workload, args.seed, args.seconds / 2, run);
  } else {
    run_workload(args, args.seconds, run);
    metrics = {
        {"item_p25_ms", quantile(run.item_ms, 0.25), "ms"},
        {"peak_heap_mib", operation_peak_heap_mib(args.workload, args.seed), "MiB"},
        {"setup_s", median(run.setup_s), "s"},
    };
  }

  // Sample counts and the tail go to stderr; stdout ends with the result.
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu ops, per item p25 %.4f ms p50 %.4f ms "
               "p90 %.4f ms; %zu set-ups, p50 %.6f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               run.item_ms.size(), quantile(run.item_ms, 0.25), median(run.item_ms),
               quantile(run.item_ms, 0.9),
               run.setup_s.size(), median(run.setup_s));
  std::string json = "{\"correct\": ";
  json += run.consistent && run.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

void* operator new(std::size_t n) { return heap_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return heap_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return heap_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return heap_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return heap_alloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return heap_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return heap_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return heap_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { heap_free(p); }
void operator delete[](void* p) noexcept { heap_free(p); }
void operator delete(void* p, std::size_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::size_t) noexcept { heap_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { heap_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { heap_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { heap_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { heap_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { heap_free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  heap_free(p);
}
