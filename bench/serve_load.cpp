// Bench — serving front end under a load sweep: latency distribution and
// deadline compliance per QoS class.
//
// Drives the multi-tenant front end at 0.5x and 1.0x rated capacity with
// a clean fleet, then at 2.0x with fault injection on, and reports the
// per-class terminal mix plus p50/p99 completion latency. Gates (written
// to results/BENCH_serve.json and enforced via the exit code):
//   * guaranteed class: zero deadline misses, zero sheds, zero timeouts
//     at <= 1x rated load, and p99 latency within the class deadline;
//   * guaranteed class is never shed at any load point;
//   * zero per-request invariant violations everywhere.
// Deterministic: one seed per cell.
#include <algorithm>
#include <cmath>

#include "bench_util.hpp"
#include "serve/soak.hpp"

namespace {

using namespace uparc;

struct ClassStats {
  u64 completed = 0;
  u64 deadline_miss = 0;
  u64 rejected = 0;
  u64 shed = 0;
  u64 timed_out = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;

  [[nodiscard]] double miss_rate() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_miss) /
                                static_cast<double>(completed);
  }
};

struct CellResult {
  double load_factor = 0.0;
  double fault_scale = 0.0;
  double rated_rps = 0.0;
  double warm_us = 0.0;
  u64 issued = 0;
  std::size_t violations = 0;
  std::array<ClassStats, serve::kQosClassCount> cls{};
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size()))) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Runs one load point through the front end and folds the record table
/// into per-class stats with completion-latency percentiles.
CellResult run_cell(double load_factor, double fault_scale, u64 requests, u64 seed) {
  serve::ServeSoakConfig soak_cfg;
  soak_cfg.seed = seed;
  soak_cfg.requests = requests;
  soak_cfg.load_factor = load_factor;
  soak_cfg.fault_scale = fault_scale;

  serve::FrontEndConfig fe_cfg;
  fe_cfg.seed = seed;
  fe_cfg.fault_scale = fault_scale;
  serve::FrontEnd fe(fe_cfg);

  serve::WorkloadGenerator gen(
      serve::make_tenants(soak_cfg, fe.rated_rps(), fe.warm_cost()),
      fe_cfg.modules, seed);
  fe.run(gen, requests);

  CellResult out;
  out.load_factor = load_factor;
  out.fault_scale = fault_scale;
  out.rated_rps = fe.rated_rps();
  out.warm_us = fe.warm_cost().us();
  out.issued = gen.issued();
  out.violations = fe.violations().size();

  std::array<std::vector<double>, serve::kQosClassCount> latencies;
  for (const serve::RequestRecord& rec : fe.records()) {
    ClassStats& s = out.cls[static_cast<std::size_t>(rec.req.qos)];
    switch (rec.outcome) {
      case serve::Outcome::kCompleted:
        ++s.completed;
        if (rec.deadline_miss) ++s.deadline_miss;
        latencies[static_cast<std::size_t>(rec.req.qos)].push_back(
            (rec.finished - rec.req.arrival).us());
        break;
      case serve::Outcome::kRejected: ++s.rejected; break;
      case serve::Outcome::kShed: ++s.shed; break;
      case serve::Outcome::kTimedOut: ++s.timed_out; break;
      case serve::Outcome::kPending: ++out.violations; break;
    }
  }
  for (std::size_t c = 0; c < serve::kQosClassCount; ++c) {
    std::sort(latencies[c].begin(), latencies[c].end());
    out.cls[c].p50_us = percentile(latencies[c], 0.50);
    out.cls[c].p99_us = percentile(latencies[c], 0.99);
  }
  return out;
}

}  // namespace

int main() {
  using namespace uparc;
  bench::banner("SERVE", "Multi-tenant serving: latency and deadline compliance vs load");

  constexpr u64 kRequests = 600;
  constexpr u64 kSeed = 42;

  struct Point {
    double load;
    double faults;
  };
  const Point points[] = {{0.5, 0.0}, {1.0, 0.0}, {2.0, 1.0}};

  std::vector<CellResult> cells;
  for (const Point& p : points) cells.push_back(run_cell(p.load, p.faults, kRequests, kSeed));

  // The guaranteed deadline budget in µs, for the p99 gate. Every cell
  // shares the seed, so calibration (and hence the budget) is identical
  // across cells — read it off the first one.
  const double guaranteed_budget_us = cells[0].warm_us * serve::kGuaranteedDeadlineX;

  std::printf("  %llu requests per cell, seed %llu, guaranteed deadline %.0f us\n\n",
              static_cast<unsigned long long>(kRequests),
              static_cast<unsigned long long>(kSeed), guaranteed_budget_us);
  std::printf("  %-6s %-6s %-12s %9s %6s %6s %6s %6s %9s %9s %6s\n", "load", "fault",
              "class", "complete", "miss", "rej", "shed", "tout", "p50us", "p99us",
              "viol");

  bool pass = true;
  std::string cells_json;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    const ClassStats& g = cell.cls[0];
    const bool at_or_under_rated = cell.load_factor <= 1.0;

    const bool cell_ok =
        cell.violations == 0 && g.shed == 0 &&
        (!at_or_under_rated ||
         (g.deadline_miss == 0 && g.timed_out == 0 &&
          g.p99_us <= guaranteed_budget_us));
    pass = pass && cell_ok;

    std::string classes_json;
    for (std::size_t c = 0; c < serve::kQosClassCount; ++c) {
      const ClassStats& s = cell.cls[c];
      std::printf("  %-6.2f %-6.2f %-12s %9llu %6llu %6llu %6llu %6llu %9.1f %9.1f %6zu%s\n",
                  cell.load_factor, cell.fault_scale,
                  serve::to_string(static_cast<serve::QosClass>(c)),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(s.deadline_miss),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.shed),
                  static_cast<unsigned long long>(s.timed_out), s.p50_us, s.p99_us,
                  c == 0 ? cell.violations : std::size_t{0},
                  c == 0 && !cell_ok ? "  !! GATE" : "");
      char buf[360];
      std::snprintf(buf, sizeof buf,
                    "        {\"class\": \"%s\", \"completed\": %llu, "
                    "\"deadline_miss\": %llu, \"miss_rate\": %.4f, "
                    "\"rejected\": %llu, \"shed\": %llu, \"timed_out\": %llu, "
                    "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
                    serve::to_string(static_cast<serve::QosClass>(c)),
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.deadline_miss), s.miss_rate(),
                    static_cast<unsigned long long>(s.rejected),
                    static_cast<unsigned long long>(s.shed),
                    static_cast<unsigned long long>(s.timed_out), s.p50_us, s.p99_us,
                    c + 1 < serve::kQosClassCount ? "," : "");
      classes_json += buf;
    }
    char buf[260];
    std::snprintf(buf, sizeof buf,
                  "    {\"load_factor\": %.2f, \"fault_scale\": %.2f, "
                  "\"rated_rps\": %.1f, \"issued\": %llu, \"violations\": %zu, "
                  "\"classes\": [\n",
                  cell.load_factor, cell.fault_scale, cell.rated_rps,
                  static_cast<unsigned long long>(cell.issued), cell.violations);
    cells_json += std::string(buf) + classes_json + "    ]}" +
                  (i + 1 < cells.size() ? ",\n" : "\n");
  }

  char buf[340];
  std::snprintf(buf, sizeof buf,
                "{\n  \"bench\": \"serve\",\n  \"requests_per_cell\": %llu,\n"
                "  \"seed\": %llu,\n  \"guaranteed_deadline_us\": %.2f,\n"
                "  \"gates\": {\"guaranteed_miss_at_rated\": 0, "
                "\"guaranteed_shed\": 0, \"violations\": 0, "
                "\"guaranteed_p99_within_deadline_at_rated\": true},\n"
                "  \"pass\": %s,\n  \"cells\": [\n",
                static_cast<unsigned long long>(kRequests),
                static_cast<unsigned long long>(kSeed), guaranteed_budget_us,
                pass ? "true" : "false");
  const std::string json = std::string(buf) + cells_json + "  ]\n}\n";
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (write_text_file("results/BENCH_serve.json", json).ok()) {
    std::printf("\n  wrote results/BENCH_serve.json\n");
  }

  std::printf("\n  guaranteed class meets every deadline at rated load, absorbs zero\n"
              "  shedding under 2x overload with faults: %s\n",
              pass ? "CONFIRMED" : "OFF");
  return pass ? 0 : 1;
}
