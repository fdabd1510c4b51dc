// Multi-tenant serving front end over the reconfiguration stack.
//
// The front end owns a fleet of simulated devices — each a
// txn::ControllerStack (UPaRC + cache + power rail, floorplan, WAL-backed
// transaction manager, region manager and chaos injector) reading the
// fleet's one shared ModuleSet — and serves timed module-load requests
// against them under a single global virtual clock:
//
//   arrival ── admission (token bucket + deadline feasibility)
//      │            │ reject (bucket / infeasible)
//      ▼            ▼
//   class queues (bounded, EDF per class, strict priority across classes,
//      │          shed strictly lowest-class-first under saturation;
//      │          closed-loop clients get backpressure: bounded re-arrival
//      │          instead of immediate rejection)
//      ▼
//   dispatch ── pick device (circuit breaker closed, regions schedulable,
//      │         not busy, different device for retries)
//      │        ── none usable & none busy → software-execution fallback
//      ▼
//   attempt ── a load job posted to the device's executor shard starts at
//              the next epoch horizon; its completion message comes back
//              stamped with global time. Timeout or rollback → one
//              jittered-backoff retry on a *different* device, then the
//              request times out. Failures feed the per-device circuit
//              breaker; the breaker and the HealthTracker quarantine state
//              together decide usability.
//
// Every request terminates exactly once as completed / rejected / shed /
// timed-out — serve::run_soak asserts this (and the shed-ordering and
// deadline-accounting invariants) over the record table kept here.
//
// Each device simulation is one sim::ParallelExecutor shard on its own
// clock; `Device::base` anchors it to the global clock (device time = base
// + global time). The coordinator loop alternates barrier epochs, which
// advance every shard to base + the epoch horizon, with the coordinator
// events up to that horizon, popped from one (time, seq) sim::EventHeap.
// `workers` only sets how many threads run the epochs (0 = inline on the
// coordinator), never the results.
#pragma once

#include <memory>

#include "analysis/isolation_lint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/telemetry.hpp"
#include "serve/admission.hpp"
#include "serve/queue.hpp"
#include "serve/workload.hpp"
#include "sim/parallel.hpp"
#include "txn/stack.hpp"

namespace uparc::serve {

/// Per-device circuit breaker. `opens` drives the backoff exponent, so a
/// breaker restored from a snapshot continues its doubling schedule instead
/// of starting over — the serve-layer twin of the HealthTracker restore
/// contract (a restarted controller must not forget how flaky its device
/// has been).
struct Breaker {
  unsigned consecutive_failures = 0;
  unsigned opens = 0;
  bool open = false;
  TimePs open_until{};

  [[nodiscard]] std::string to_json() const;
  /// Parses a to_json() snapshot; throws std::runtime_error on bad input.
  [[nodiscard]] static Breaker from_json(const std::string& snapshot);
};

/// Terminal states. Exactly one per request — the core soak invariant.
enum class Outcome : u8 { kPending, kCompleted, kRejected, kShed, kTimedOut };

[[nodiscard]] constexpr const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kPending: return "pending";
    case Outcome::kCompleted: return "completed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kShed: return "shed";
    case Outcome::kTimedOut: return "timed_out";
  }
  return "unknown";
}

/// What a caller chooses about a fleet. The serve protocol itself (retries,
/// timeouts, backoffs, breaker, software fallback, epoch quantum) is fixed:
/// the constants at the top of frontend.cpp, listed in DESIGN.md §13.
struct FrontEndConfig {
  u64 seed = 1;
  unsigned devices = 2;
  unsigned regions_per_device = 2;
  unsigned modules = 4;
  std::size_t module_kb = 8;
  /// Fault-injection scale for the device fleet (0 = off). Injectors are
  /// armed only after calibration so the cost model learns clean numbers.
  double fault_scale = 0.0;
  /// Shared bound across the three class queues.
  std::size_t queue_capacity = 64;
  /// Controller-restart drill: once a device has served this many loads it
  /// is cold-restarted at its next idle pick — a fresh controller stack
  /// rebuilds its state from the old one's WAL and fabric
  /// (txn::ControllerStack::recover_from) and the breaker is restored from
  /// a snapshot. 0 = off. Each device restarts at most once per run.
  u64 restart_after_loads = 0;
  /// Worker threads of the sharded executor that advances the device
  /// shards in conservative barrier epochs. 0 = no thread: the epochs run
  /// inline on the coordinating thread. >= 1 pins every device shard to a
  /// sim::ParallelExecutor worker. The results are byte-identical for ANY
  /// worker count, 0 included (the determinism contract verified by
  /// `verify-determinism --scenario serve`).
  unsigned workers = 0;
};

struct RequestRecord {
  Request req;
  Outcome outcome = Outcome::kPending;
  TimePs finished{};
  bool software = false;
  bool deadline_miss = false;
  unsigned terminal_events = 0;  ///< must end at exactly 1
};

class FrontEnd {
 public:
  explicit FrontEnd(FrontEndConfig config);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Measured warm per-load service time (from calibration).
  [[nodiscard]] TimePs warm_cost() const noexcept { return warm_cost_; }
  /// Rated capacity: devices / warm service time, in requests per second.
  [[nodiscard]] double rated_rps() const noexcept { return rated_rps_; }

  /// Serves `max_requests` generated requests to their terminal states.
  /// Open-loop tenants stop generating once the budget is issued; the loop
  /// runs until every issued request has terminated.
  void run(WorkloadGenerator& gen, u64 max_requests);

  /// Enables telemetry sampling for the next run(): the front-end registry
  /// plus every device kernel registry (labeled {device="dN"}) are snapped
  /// into time-series rings on interval boundaries of the global clock, and
  /// objectives added with add_slo are burn-rate-evaluated on every tick.
  /// Call before run().
  void enable_telemetry(obs::TelemetryConfig telemetry_config = {});
  /// Registers an SLO objective (requires enable_telemetry first).
  void add_slo(obs::SloObjective objective);
  [[nodiscard]] obs::TelemetrySampler* telemetry() noexcept { return telemetry_.get(); }
  [[nodiscard]] obs::SloEngine* slo() noexcept { return slo_.get(); }

  /// Always-on black box: breaker transitions, failed attempts, sheds and
  /// transaction terminals land in bounded per-device rings. The first
  /// breaker open / failed transaction / invariant violation freezes the
  /// post-mortem snapshot.
  [[nodiscard]] obs::FlightRecorder& flight() noexcept { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept { return flight_; }

  [[nodiscard]] TimePs now() const noexcept { return now_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const std::vector<RequestRecord>& records() const noexcept {
    return records_;
  }
  /// Invariant violations detected while serving (checked again by the
  /// soak harness over the record table).
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const FrontEndConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned device_count() const noexcept {
    return static_cast<unsigned>(devices_.size());
  }
  [[nodiscard]] u64 fault_fires() const;
  /// Simulation event equivalents across the fleet (sum over device
  /// kernels of events plus inlined clock edges, i.e. the events the
  /// one-event-per-edge path would run) — the throughput numerator for
  /// bench/parallel_fleet, comparable across the inline-edge change.
  [[nodiscard]] u64 fleet_events_executed() const;
  /// Kernel events actually dispatched across the fleet (inlined clock
  /// edges excluded).
  [[nodiscard]] u64 fleet_kernel_events() const;
  /// Controller restarts performed by the restart drill this run.
  [[nodiscard]] u64 restarts() const noexcept { return restarts_; }
  /// Health snapshots (txn::HealthTracker::render_json) per device.
  [[nodiscard]] std::string health_json() const;
  /// Isolation audit over every device topology (each device simulation is
  /// tagged as one shard in make_device). Empty report = fleet is
  /// partition-clean; see analysis/isolation_lint.hpp for the iso.* rules.
  [[nodiscard]] analysis::Report lint_isolation() const;

 private:
  /// One fleet device: its controller stack (every device journals into a
  /// WAL — what the restart drill recovers from) plus serve state.
  struct Device : txn::ControllerStack {
    using ControllerStack::ControllerStack;

    TimePs base{};  ///< device-sim time at global t = 0
    Breaker breaker;
    u64 loads = 0;
    bool restarted = false;  ///< this controller already did its drill

    sim::ShardId shard = sim::kNoShard;  ///< executor shard id (== index)
    bool in_flight = false;       ///< a load job/completion is outstanding
    u64 flight_token = 0;         ///< stale-completion guard (bumped per dispatch)
    bool flight_abandoned = false;  ///< timeout probe already failed the attempt
    Request flight_request{};       ///< the request the in-flight load serves
    bool wedged = false;  ///< shard advance threw: off-fleet until restarted
    /// Worker-side flight events land here (the shared recorder is
    /// coordinator-only) and are drained into `flight_` at every barrier.
    std::unique_ptr<obs::FlightRecorder> staging;
    u64 staging_drained = 0;        ///< ring events already copied out
    u64 staging_triggers_seen = 0;  ///< triggers already adopted
  };

  /// Device `index`: a controller stack over the shared module set, tagged
  /// as executor shard `index`, chaos injector unarmed.
  [[nodiscard]] std::unique_ptr<Device> make_device(unsigned index);
  /// Cold-restarts device `device_index`'s controller in place: a fresh
  /// stack recovers from the old one (recover_from: fabric frames copied,
  /// WAL replayed) and the breaker is restored from its snapshot so its
  /// backoff schedule continues.
  void restart_device(int device_index);
  void calibrate();
  void schedule(TimePs at, std::function<void()> fn);
  [[nodiscard]] bool device_usable(Device& d, int device_index);
  [[nodiscard]] int pick_device(int exclude);
  [[nodiscard]] TimePs estimate_cost(const std::string& module) const;
  /// Fires telemetry ticks (and SLO evaluation) on every interval boundary
  /// up to `target`; called from the event loop before each event.
  void telemetry_tick_until(TimePs target);
  /// Copies new SLO alert transitions into the flight recorder.
  void note_alerts();

  void on_arrival(Request r, WorkloadGenerator& gen, u64 max_requests);
  void enqueue(Request r);
  void try_dispatch();
  /// Posts `r`'s load to device `device_index`'s shard; it starts at the
  /// next epoch horizon.
  void dispatch(Request r, int device_index);
  /// Attempt timeout horizon for `r`.
  [[nodiscard]] TimePs attempt_timeout(const Request& r) const;
  [[nodiscard]] bool any_in_flight() const;

  /// The event loop: drives the fleet through barrier epochs and runs the
  /// coordinator events up to each epoch's horizon.
  void run_loop();
  void start_executor();
  /// One barrier epoch advancing every shard to its device time for
  /// `horizon` (global), then drains staging flight events.
  void advance_fleet(TimePs horizon);
  /// Copies worker-recorded flight events / adopted triggers from every
  /// device's staging recorder into the shared one, deterministically.
  void drain_staging();
  void on_load_complete(int device_index, u64 token, TimePs t0,
                        region::LoadResult res);
  void on_shard_error(sim::ShardId shard, const std::string& what);
  void run_software(Request r);
  void attempt_failed(Request r, int device_index, const std::string& why);
  void breaker_failure(Device& d, int device_index);
  void terminal(const Request& r, Outcome outcome, bool software);
  void check_shed_order(const Request& shed);

  FrontEndConfig config_;
  obs::Registry metrics_;
  obs::FlightRecorder flight_;
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::size_t alerts_seen_ = 0;
  Prng jitter_;
  /// The fleet's one module set; every device's RegionManager reads it.
  txn::ModuleSet modules_;
  std::vector<std::unique_ptr<Device>> devices_;
  ClassQueues queues_;
  std::unique_ptr<AdmissionController> admission_;

  TimePs now_{};
  u64 event_seq_ = 0;
  sim::EventHeap events_;

  // Declared after devices_ so the executor (which holds raw shard pointers
  // into them) is destroyed first.
  std::unique_ptr<sim::ParallelExecutor> executor_;
  TimePs epoch_quantum_{};  ///< horizon bound: warm_cost / 4, floored at 10 us
  TimePs epoch_horizon_{};  ///< horizon of the epoch currently processing

  TimePs warm_cost_{};
  double rated_rps_ = 0.0;
  TimePs sw_free_{};  ///< software executor busy until (global)

  std::vector<RequestRecord> records_;  ///< indexed by request id
  u64 terminals_ = 0;
  u64 restarts_ = 0;
  std::vector<std::string> violations_;

  // Completion hooks installed by run() for closed-loop backpressure.
  WorkloadGenerator* gen_ = nullptr;
  u64 max_requests_ = 0;
};

}  // namespace uparc::serve
