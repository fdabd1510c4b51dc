#include "serve/frontend.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace uparc::serve {
namespace {

// The serve protocol (summarized on FrontEndConfig).
/// Device attempts per request: the first plus one retry elsewhere.
constexpr unsigned kMaxAttempts = 2;
/// Attempt timeout = kTimeoutFactor x estimated cost, floored.
constexpr double kTimeoutFactor = 6.0;
constexpr TimePs kTimeoutFloor = TimePs::from_us(500);
/// Retry backoff base (doubled per attempt, +0..50% deterministic jitter).
constexpr TimePs kRetryBackoff = TimePs::from_us(50);
/// Closed-loop backpressure: re-arrival delay base and retry bound.
constexpr TimePs kBackpressureDelay = TimePs::from_us(200);
constexpr unsigned kMaxBackpressure = 3;
/// Circuit breaker: consecutive failures to open; the open interval
/// doubles per re-open.
constexpr unsigned kBreakerThreshold = 3;
constexpr TimePs kBreakerBackoff = TimePs::from_ms(1);
/// Cost of the software-execution fallback (serialized on one executor).
constexpr TimePs kSoftwareCost = TimePs::from_ms(2);

/// Seed salt of every device's chaos plan.
constexpr u64 kFleetChaosSalt = 0x5EA7E5EA7EULL;

[[nodiscard]] std::string class_suffix(QosClass c) {
  return std::string(".") + to_string(c);
}

/// Flight-recorder / telemetry shard name of device `i`.
[[nodiscard]] std::string device_shard(int i) {
  return "d" + std::to_string(i);
}

}  // namespace

std::string Breaker::to_json() const {
  std::ostringstream os;
  os << "{\"consecutive_failures\":" << consecutive_failures << ",\"opens\":" << opens
     << ",\"open\":" << (open ? "true" : "false")
     << ",\"open_until_ps\":" << open_until.ps() << "}";
  return os.str();
}

Breaker Breaker::from_json(const std::string& snapshot) {
  auto parsed = json::parse(snapshot);
  if (!parsed.ok()) {
    throw std::runtime_error("Breaker::from_json: " + parsed.error().message);
  }
  const json::Value& v = parsed.value();
  Breaker b;
  b.consecutive_failures = static_cast<unsigned>(v.at("consecutive_failures").as_u64());
  b.opens = static_cast<unsigned>(v.at("opens").as_u64());
  b.open = v.at("open").as_bool();
  b.open_until = TimePs{v.at("open_until_ps").as_u64()};
  return b;
}

FrontEnd::FrontEnd(FrontEndConfig config)
    : config_(config),
      jitter_(config.seed ^ 0xF0E1D2C3B4A59687ULL),
      modules_(txn::make_module_set(core::UparcConfig{}.device, config.modules,
                                    config.module_kb, config.seed)),
      queues_(config.queue_capacity) {
  if (config_.devices == 0) throw std::invalid_argument("FrontEnd: need >= 1 device");
  // Every device stack builds the same floorplan; prepare its images while
  // this thread is still the only one reading the set.
  modules_.prepare(core::UparcConfig{}.device, config_.regions_per_device);
  for (unsigned di = 0; di < config_.devices; ++di) devices_.push_back(make_device(di));
  calibrate();
}

FrontEnd::~FrontEnd() = default;

std::unique_ptr<FrontEnd::Device> FrontEnd::make_device(unsigned index) {
  txn::StackConfig stack_cfg;
  stack_cfg.regions = config_.regions_per_device;
  stack_cfg.wal = txn::WalPolicy{};
  // Per-device fault stream; armed after calibration (see calibrate()).
  stack_cfg.chaos = txn::chaos_plan((config_.seed + index) ^ kFleetChaosSalt,
                                    config_.fault_scale);
  auto dev = std::make_unique<Device>(modules_, stack_cfg);
  // Transaction terminals land on the device's black-box shard (stamped
  // with the device sim clock — each shard records in its own clock
  // domain); a kFailed transaction trips the post-mortem. They record into
  // a per-device staging recorder (shard code must not touch the shared
  // one) that drain_staging() merges at each barrier.
  dev->staging = std::make_unique<obs::FlightRecorder>(flight_.config());
  dev->txn.set_flight_recorder(dev->staging.get(),
                               device_shard(static_cast<int>(index)) + "/txn");
  // The whole device simulation is one event shard (shard id = device
  // index): every module, clock and registered component in it belongs to
  // this device and nothing reaches across. lint_isolation() audits that.
  dev->system.sim().topology().assign_shard_to_all(index);
  return dev;
}

void FrontEnd::restart_device(int device_index) {
  Device& old = *devices_[device_index];
  const sim::ShardId shard = old.shard;
  // Pull the shard back to the coordinator (solo handoff epoch, audited by
  // iso.shard.handoff) and take the old controller's last staging flight
  // events before it is torn down.
  executor_->acquire(shard);
  drain_staging();

  auto fresh = make_device(static_cast<unsigned>(device_index));
  const txn::RecoveryReport report = fresh->recover_from(old);
  for (const std::string& err : report.errors) {
    violations_.push_back("device " + device_shard(device_index) + " restart: " + err);
  }
  fresh->breaker = Breaker::from_json(old.breaker.to_json());
  fresh->loads = old.loads;
  fresh->restarted = true;
  // Recovery drove the fresh simulation (readback scans, ladder
  // re-programs); re-anchor so device time = base + global time stays
  // monotone from here on.
  const TimePs dev_now = fresh->system.sim().now();
  fresh->base = dev_now > now_ ? dev_now - now_ : TimePs{0};
  if (config_.fault_scale > 0.0) fresh->arm_chaos();
  if (telemetry_ != nullptr) {
    telemetry_->replace_source(&fresh->system.sim().metrics(),
                               {{"device", device_shard(device_index)}});
  }

  ++restarts_;
  metrics_.counter("serve.restarts").add();
  flight_.info(device_shard(device_index), now_, "serve", "controller-restart",
               "loads=" + std::to_string(fresh->loads) +
                   " wal_records=" + std::to_string(report.records_scanned) +
                   " regions=" + std::to_string(report.regions.size()));
  // Hand the recovered kernel to the shard's worker; release() also clears
  // any wedge the old kernel left behind.
  fresh->shard = shard;
  executor_->release(shard, &fresh->system.sim());
  devices_[static_cast<std::size_t>(device_index)] = std::move(fresh);
}

analysis::Report FrontEnd::lint_isolation() const {
  analysis::Report merged;
  for (const auto& dev : devices_) {
    merged.merge(analysis::lint_isolation(dev->system.sim().topology()));
  }
  return merged;
}

void FrontEnd::calibrate() {
  // Two passes per device: pass 1 pays the cold preload and populates the
  // caches and cost model, pass 2 measures the warm service time that
  // defines rated capacity. Faults are off during calibration.
  double warm_us_sum = 0.0;
  u64 warm_samples = 0;
  for (auto& dev : devices_) {
    sim::Simulation& sim = dev->system.sim();
    for (unsigned pass = 0; pass < 2; ++pass) {
      for (unsigned m = 0; m < modules_.size(); ++m) {
        const std::string module = "m" + std::to_string(m);
        std::optional<region::LoadResult> got;
        dev->manager.load_any(module, [&](const region::LoadResult& r) { got = r; });
        sim.run();
        if (!got || !got->success) {
          throw std::runtime_error("FrontEnd calibration load failed for " + module);
        }
        // Service time is the load's own latency, not the full drain: the
        // kernel keeps processing unrelated background events (rail
        // sampling, clock tails) after the result fires, and the device is
        // free to accept the next load the moment the manager finishes.
        if (pass == 1) {
          warm_us_sum += got->total_latency().us();
          ++warm_samples;
        }
      }
    }
    dev->base = sim.now();  // global t=0 anchors here
    if (config_.fault_scale > 0.0) dev->arm_chaos();
  }
  warm_cost_ = TimePs::from_us(warm_us_sum / static_cast<double>(warm_samples));
  rated_rps_ =
      static_cast<double>(devices_.size()) * 1e6 / std::max(warm_cost_.us(), 1e-3);
  metrics_.gauge("serve.rated_rps").set(rated_rps_);
  metrics_.gauge("serve.warm_cost_us").set(warm_cost_.us());
}

void FrontEnd::enable_telemetry(obs::TelemetryConfig telemetry_config) {
  telemetry_ = std::make_unique<obs::TelemetrySampler>(telemetry_config);
  telemetry_->add_source(&metrics_, {});
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    telemetry_->add_source(&devices_[i]->system.sim().metrics(),
                           {{"device", device_shard(static_cast<int>(i))}});
  }
  telemetry_->set_presample_hook([this](TimePs) {
    // Derived gauges refreshed at tick time, before the instruments are
    // read: queue depth per class, breaker/busy state per device.
    for (std::size_t c = 0; c < kQosClassCount; ++c) {
      const auto qos = static_cast<QosClass>(c);
      metrics_
          .gauge(obs::labeled_name("serve.queue_depth", {{"qos_class", to_string(qos)}}))
          .set(static_cast<double>(queues_.size(qos)));
    }
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      const Device& d = *devices_[i];
      const std::vector<obs::Label> dev{{"device", device_shard(static_cast<int>(i))}};
      metrics_.gauge(obs::labeled_name("serve.breaker_open", dev))
          .set(d.breaker.open ? 1.0 : 0.0);
      metrics_.gauge(obs::labeled_name("serve.busy", dev)).set(d.in_flight ? 1.0 : 0.0);
    }
  });
  slo_ = std::make_unique<obs::SloEngine>();
}

void FrontEnd::add_slo(obs::SloObjective objective) {
  if (slo_ == nullptr) throw std::logic_error("FrontEnd::add_slo before enable_telemetry");
  slo_->add_objective(std::move(objective));
}

void FrontEnd::telemetry_tick_until(TimePs target) {
  if (telemetry_ == nullptr) return;
  while (telemetry_->next_tick() <= target) {
    const TimePs tick = telemetry_->next_tick();
    telemetry_->sample(tick);
    if (slo_ != nullptr && !slo_->objectives().empty()) {
      slo_->evaluate(tick, *telemetry_);
      note_alerts();
    }
  }
}

void FrontEnd::note_alerts() {
  const std::vector<obs::AlertEvent>& alerts = slo_->alerts();
  for (; alerts_seen_ < alerts.size(); ++alerts_seen_) {
    const obs::AlertEvent& a = alerts[alerts_seen_];
    if (a.firing) {
      flight_.warn("frontend", a.t, "slo", "alert-firing", a.objective);
    } else {
      flight_.info("frontend", a.t, "slo", "alert-resolved", a.objective);
    }
  }
}

void FrontEnd::schedule(TimePs at, std::function<void()> fn) {
  events_.push(sim::Event{std::max(at, now_), event_seq_++, std::move(fn)});
}

TimePs FrontEnd::estimate_cost(const std::string& module) const {
  // Devices are identical, so device 0's learned model speaks for all.
  return devices_.front()->manager.estimate_load_cost(module, warm_cost_);
}

bool FrontEnd::device_usable(Device& d, int device_index) {
  // A wedged shard (its advance threw) is off-fleet: the executor parks it
  // and drops its jobs, so dispatching to it would strand the request. The
  // restart drill is the one path back (release() clears the wedge).
  if (d.wedged) return false;
  if (d.breaker.open) {
    if (now_ < d.breaker.open_until) return false;
    // Backoff elapsed: half-open. One more failure re-opens with a doubled
    // interval (opens count drives the exponent).
    d.breaker.open = false;
    d.breaker.consecutive_failures = kBreakerThreshold - 1;
    flight_.info(device_shard(device_index), now_, "breaker", "breaker-half-open",
                 "opens=" + std::to_string(d.breaker.opens));
  }
  for (const region::Region& r : d.manager.floorplan().regions()) {
    if (d.txn.health().schedulable(r.name)) return true;
  }
  return false;  // every region quarantined: the device is off-fleet
}

int FrontEnd::pick_device(int exclude) {
  int best = -1;
  for (int i = 0; i < static_cast<int>(devices_.size()); ++i) {
    if (i == exclude && devices_.size() > 1) continue;
    if (devices_[i]->in_flight) continue;
    // Restart drill: an idle device past its load quota is cold-restarted
    // here, before usability is judged on the recovered controller.
    if (config_.restart_after_loads > 0 && !devices_[i]->restarted &&
        devices_[i]->loads >= config_.restart_after_loads) {
      restart_device(i);
    }
    Device& d = *devices_[i];
    if (!device_usable(d, i)) continue;
    // Deterministic preference: fewest breaker failures, then least loaded.
    if (best < 0 ||
        std::make_tuple(d.breaker.consecutive_failures, d.loads, i) <
            std::make_tuple(devices_[best]->breaker.consecutive_failures,
                            devices_[best]->loads, best)) {
      best = i;
    }
  }
  return best;
}

void FrontEnd::terminal(const Request& r, Outcome outcome, bool software) {
  RequestRecord& rec = records_[r.id];
  ++rec.terminal_events;
  if (rec.terminal_events > 1) {
    violations_.push_back("request " + std::to_string(r.id) +
                          " terminated more than once (" + to_string(rec.outcome) +
                          " then " + to_string(outcome) + ")");
    return;
  }
  rec.req = r;
  rec.outcome = outcome;
  rec.finished = now_;
  rec.software = software;
  ++terminals_;

  const std::string cls = class_suffix(r.qos);
  // Per-class terminal counter: the denominator for class-scoped SLO
  // ratios (every terminal counts, whatever the outcome).
  metrics_.counter("serve.finished" + cls).add();
  switch (outcome) {
    case Outcome::kCompleted: {
      rec.deadline_miss = now_ > r.deadline;
      metrics_.counter("serve.completed" + cls).add();
      if (rec.deadline_miss) {
        metrics_.counter("serve.deadline_miss" + cls).add();
      } else {
        metrics_.meter("serve.goodput").add(1.0, now_);
        metrics_.counter("serve.goodput" + cls).add();
      }
      metrics_.histogram("serve.latency_us" + cls, obs::Histogram::latency_bounds_us())
          .observe((now_ - r.arrival).us());
      // Labeled twin of the latency histogram: the telemetry sampler folds
      // the device label across the fleet, so per-device AND fleet-wide
      // per-class p99 time series come from this one instrument family.
      const std::string where = software ? "sw" : device_shard(r.last_device);
      metrics_
          .histogram(obs::labeled_name("serve.latency_us",
                                       {{"device", where}, {"qos_class", to_string(r.qos)}}),
                     obs::Histogram::latency_bounds_us())
          .observe((now_ - r.arrival).us());
      if (software) metrics_.counter("serve.software_fallbacks").add();
      break;
    }
    case Outcome::kRejected:
      metrics_.counter("serve.rejected" + cls).add();
      break;
    case Outcome::kShed:
      metrics_.counter("serve.shed" + cls).add();
      flight_.warn("frontend", now_, "serve", "shed",
                   "req=" + std::to_string(r.id) + " class=" + to_string(r.qos));
      break;
    case Outcome::kTimedOut:
      metrics_.counter("serve.timeout" + cls).add();
      flight_.warn("frontend", now_, "serve", "timeout",
                   "req=" + std::to_string(r.id) + " class=" + to_string(r.qos) +
                       " attempts=" + std::to_string(r.attempts));
      break;
    case Outcome::kPending:
      violations_.push_back("request " + std::to_string(r.id) +
                            " terminalized as pending");
      break;
  }

  // Closed-loop client: its next request is released one think time after
  // this terminal (however it ended — the client got its answer).
  if (gen_ != nullptr && gen_->tenants()[r.tenant].mode == ArrivalMode::kClosedLoop &&
      gen_->issued() < max_requests_) {
    Request next = gen_->next_closed(r.tenant, now_);
    WorkloadGenerator* gen = gen_;
    const u64 budget = max_requests_;
    schedule(next.arrival, [this, next, gen, budget]() mutable {
      on_arrival(std::move(next), *gen, budget);
    });
  }
}

void FrontEnd::check_shed_order(const Request& shed) {
  // Strictly lowest-class-first: a shed of class C while some class below
  // C still holds admitted requests breaks the QoS ordering contract.
  for (std::size_t c = static_cast<std::size_t>(shed.qos) + 1; c < kQosClassCount; ++c) {
    if (queues_.size(static_cast<QosClass>(c)) > 0) {
      violations_.push_back("request " + std::to_string(shed.id) + " (" +
                            to_string(shed.qos) + ") shed while " +
                            to_string(static_cast<QosClass>(c)) +
                            " requests were still queued");
    }
  }
}

void FrontEnd::on_arrival(Request r, WorkloadGenerator& gen, u64 max_requests) {
  metrics_.counter("serve.issued").add();

  // Open-loop tenants keep the pipeline primed: generate the next arrival
  // of this tenant's stream as soon as this one lands.
  if (gen.tenants()[r.tenant].mode != ArrivalMode::kClosedLoop &&
      gen.issued() < max_requests) {
    if (auto next = gen.next_open(r.tenant)) {
      Request n = std::move(*next);
      schedule(n.arrival, [this, n, &gen, max_requests]() mutable {
        on_arrival(std::move(n), gen, max_requests);
      });
    }
  }

  if (r.id >= records_.size()) records_.resize(r.id + 1);
  records_[r.id].req = r;

  const TimePs est = estimate_cost(r.module);
  r.est_cost = est;
  const TimePs backlog = queues_.backlog_ahead(r.qos, r.deadline);
  const AdmitVerdict verdict =
      admission_->admit(r, now_, backlog, static_cast<unsigned>(devices_.size()), est);
  if (verdict != AdmitVerdict::kAdmit) {
    terminal(r, Outcome::kRejected, false);
    return;
  }
  r.admitted = now_;
  metrics_.counter("serve.admitted").add();
  enqueue(std::move(r));
  try_dispatch();
}

void FrontEnd::enqueue(Request r) {
  // Closed-loop backpressure: when the queue would shed the incoming
  // request, the client is told to back off and re-submits later instead
  // of losing the request outright — up to max_backpressure times.
  const bool closed_loop =
      gen_ != nullptr && gen_->tenants()[r.tenant].mode == ArrivalMode::kClosedLoop;
  if (closed_loop && queues_.full() && r.backpressure < kMaxBackpressure) {
    Request retry = r;
    ++retry.backpressure;
    metrics_.counter("serve.backpressure").add();
    const double jit = 1.0 + 0.5 * jitter_.uniform();
    const TimePs delay = TimePs::from_us(kBackpressureDelay.us() *
                                         static_cast<double>(retry.backpressure) * jit);
    schedule(now_ + delay, [this, retry]() mutable {
      if (retry.deadline < now_) {
        terminal(retry, Outcome::kTimedOut, false);
        return;
      }
      enqueue(std::move(retry));
      try_dispatch();
    });
    return;
  }

  ClassQueues::PushResult pushed = queues_.push(std::move(r));
  for (Request& victim : pushed.shed) {
    check_shed_order(victim);
    terminal(victim, Outcome::kShed, false);
  }
}

void FrontEnd::try_dispatch() {
  while (!queues_.empty()) {
    // Peek-free loop: find a device first so a popped request is always
    // dispatchable (or deliberately sent to software).
    const bool any_busy = any_in_flight();
    std::vector<Request> expired;
    const int device_index = pick_device(-1);
    if (device_index < 0) {
      if (any_busy) break;  // a DeviceDone event will re-kick dispatch
      // Nothing schedulable and nothing in flight: the whole fleet is
      // broken (breakers open / regions quarantined). Degrade to the
      // software-execution path rather than letting the queue rot.
      auto r = queues_.pop(now_, expired);
      for (Request& e : expired) terminal(e, Outcome::kTimedOut, false);
      if (!r) break;
      run_software(std::move(*r));
      continue;
    }
    auto r = queues_.pop(now_, expired);
    for (Request& e : expired) terminal(e, Outcome::kTimedOut, false);
    if (!r) break;
    // The retry contract pins the second attempt to a different device.
    if (r->attempts > 0 && r->last_device == device_index && devices_.size() > 1) {
      const int other = pick_device(device_index);
      if (other >= 0) {
        dispatch(std::move(*r), other);
        continue;
      }
      if (any_busy) {
        // Another device will free up: park the retry back in its queue.
        ClassQueues::PushResult pushed = queues_.push(std::move(*r));
        for (Request& victim : pushed.shed) {
          check_shed_order(victim);
          terminal(victim, Outcome::kShed, false);
        }
        break;
      }
      // Every other device is broken: honor the different-device contract
      // by finishing in software instead of re-touching the failed device.
      run_software(std::move(*r));
      continue;
    }
    dispatch(std::move(*r), device_index);
  }
}

TimePs FrontEnd::attempt_timeout(const Request& r) const {
  return std::max(TimePs::from_us(r.est_cost.us() * kTimeoutFactor), kTimeoutFloor);
}

bool FrontEnd::any_in_flight() const {
  for (const auto& d : devices_) {
    if (d->in_flight) return true;
  }
  return false;
}

void FrontEnd::dispatch(Request r, int device_index) {
  Device& d = *devices_[device_index];
  metrics_.histogram("serve.queue_wait_us" + class_suffix(r.qos),
                     obs::Histogram::latency_bounds_us())
      .observe((now_ - r.admitted).us());

  ++r.attempts;
  r.last_device = device_index;
  ++d.loads;
  d.in_flight = true;
  d.flight_abandoned = false;
  const u64 token = ++d.flight_token;
  d.flight_request = r;

  // The load job runs on the shard's worker at the start of the next
  // epoch, when the device clock sits at base + epoch_horizon_ — the
  // effective start time is this batch's horizon, not now_. Everything the
  // job and its completion callback touch belongs to this device; the only
  // exits are executor mailboxes and the staging flight recorder.
  executor_->post(d.shard, [this, device_index, token]() {
    Device& dev = *devices_[device_index];
    const TimePs t0 = dev.system.sim().now();
    const TimePs base = dev.base;
    const sim::ShardId shard = dev.shard;
    dev.manager.load_any(
        dev.flight_request.module,
        [this, device_index, token, t0, base, shard](const region::LoadResult& res) {
          // Stamp the completion with its coordinator-clock time. Immediate
          // synchronous errors report finished_at at (or before) t0; clamp
          // so the message never lands before the load started.
          const TimePs fin = res.finished_at < t0 ? t0 : res.finished_at;
          region::LoadResult copy = res;
          executor_->send(shard, fin - base, [this, device_index, token, t0, copy]() {
            on_load_complete(device_index, token, t0, copy);
          });
        });
  });

  // The caller gives up at the timeout even though the device keeps
  // grinding until its completion message frees it — work on fabric is not
  // preemptible. Anchored at the horizon because that is when the load
  // actually starts on the device.
  schedule(epoch_horizon_ + attempt_timeout(r), [this, device_index, token]() {
    Device& dev = *devices_[device_index];
    if (token != dev.flight_token || !dev.in_flight || dev.flight_abandoned) return;
    dev.flight_abandoned = true;
    attempt_failed(dev.flight_request, device_index, "attempt timeout");
  });
}

void FrontEnd::on_load_complete(int device_index, u64 token, TimePs t0,
                                region::LoadResult res) {
  Device& d = *devices_[device_index];
  if (token != d.flight_token || !d.in_flight) return;  // stale completion
  d.in_flight = false;
  const Request r = d.flight_request;
  const bool abandoned = d.flight_abandoned;
  d.flight_abandoned = false;
  if (abandoned) {
    // The timeout probe already failed the attempt; the completion only
    // frees the device.
    try_dispatch();
    return;
  }

  const TimePs service =
      res.finished_at > t0 ? std::max(res.finished_at - t0, TimePs{1}) : TimePs{1};
  const TimePs timeout = attempt_timeout(r);
  const bool ok = res.success && !res.software_fallback;
  if (ok && service <= timeout) {
    d.breaker.consecutive_failures = 0;
    terminal(r, Outcome::kCompleted, false);
    try_dispatch();
    return;
  }
  const std::string why = service > timeout ? "attempt timeout"
                          : res.error.empty() ? "load failed"
                                              : res.error;
  attempt_failed(r, device_index, why);
}

void FrontEnd::on_shard_error(sim::ShardId shard, const std::string& what) {
  const int device_index = static_cast<int>(shard);  // shard id == device index
  Device& d = *devices_[device_index];
  d.wedged = true;
  flight_.error(device_shard(device_index), now_, "serve", "shard-wedged", what);
  if (!d.in_flight) return;
  // The in-flight load will never complete (the executor parked the
  // shard); fail the attempt now — unless the timeout probe already did.
  d.in_flight = false;
  const bool already_failed = d.flight_abandoned;
  d.flight_abandoned = false;
  if (!already_failed) {
    attempt_failed(d.flight_request, device_index,
                   what.empty() ? "load never completed" : what);
  }
}

void FrontEnd::start_executor() {
  executor_ = std::make_unique<sim::ParallelExecutor>(config_.workers);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    devices_[i]->shard =
        executor_->add_shard(&devices_[i]->system.sim(), device_shard(static_cast<int>(i)));
  }
  // Messages land on the coordinator event queue at their stamped time;
  // batch processing then interleaves them with arrivals/probes in plain
  // (t, seq) order, so delivery is independent of worker count.
  executor_->set_sink([this](TimePs t, std::function<void()> fn) {
    schedule(t, std::move(fn));
  });
  executor_->set_error_handler([this](sim::ShardId shard, const std::string& what) {
    on_shard_error(shard, what);
  });
  executor_->start();

  // A quarter of the warm service time keeps a few barriers per load in
  // flight without drowning short runs in epochs.
  epoch_quantum_ = TimePs::from_us(std::max(warm_cost_.us() / 4.0, 10.0));
}

void FrontEnd::advance_fleet(TimePs horizon) {
  epoch_horizon_ = horizon;
  std::vector<TimePs> targets(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    targets[i] = devices_[i]->base + horizon;
  }
  executor_->run_epoch(targets);
  drain_staging();
}

void FrontEnd::drain_staging() {
  struct Adopted {
    TimePs global_t;  ///< trigger time re-anchored to the coordinator clock
    TimePs t;         ///< device-clock stamp (matches the copied ring event)
    int device;
    std::string shard;
    std::string reason;
    u64 count;
  };
  std::vector<Adopted> fresh;
  for (int i = 0; i < static_cast<int>(devices_.size()); ++i) {
    Device& d = *devices_[i];
    const std::string ring_name = device_shard(i) + "/txn";
    if (const obs::TelemetryRing<obs::FlightEvent>* ring = d.staging->shard(ring_name)) {
      const u64 total = ring->total_pushed();
      const u64 new_events = total - d.staging_drained;
      // Events the staging ring already overwrote are gone — the same loss
      // the shared ring would have taken; copy what survives, oldest first.
      const auto avail = static_cast<std::size_t>(
          std::min<u64>(new_events, static_cast<u64>(ring->size())));
      for (std::size_t k = ring->size() - avail; k < ring->size(); ++k) {
        flight_.record(ring_name, ring->at(k));
      }
      d.staging_drained = total;
    }
    if (d.staging->triggers() > d.staging_triggers_seen) {
      const TimePs t = d.staging->first_trigger_time();
      fresh.push_back(Adopted{t > d.base ? t - d.base : TimePs{0}, t, i,
                              d.staging->first_trigger_shard(),
                              d.staging->first_trigger_reason(),
                              d.staging->triggers() - d.staging_triggers_seen});
      d.staging_triggers_seen = d.staging->triggers();
    }
  }
  // The ring copies above happen before any adoption so the frozen
  // post-mortem holds the full epoch; adoption order (global trigger time,
  // then device index) picks the earliest failure as "first" regardless of
  // which worker surfaced it.
  std::sort(fresh.begin(), fresh.end(), [](const Adopted& a, const Adopted& b) {
    return a.global_t != b.global_t ? a.global_t < b.global_t : a.device < b.device;
  });
  for (const Adopted& tr : fresh) {
    for (u64 k = 0; k < tr.count; ++k) {
      flight_.adopt_trigger(tr.shard, tr.t, tr.reason);
    }
  }
}

void FrontEnd::run_loop() {
  start_executor();
  while (!events_.empty()) {
    const TimePs next_t = std::max(events_.top().time, now_);
    // Conservative horizon: with loads in flight their completion messages
    // must surface within a quantum; an idle fleet can jump straight to
    // the next event. max(now_) keeps the horizon monotone.
    const TimePs horizon =
        any_in_flight() ? std::min(next_t, now_ + epoch_quantum_) : next_t;
    advance_fleet(horizon);
    while (!events_.empty() && events_.top().time <= horizon) {
      sim::Event ev = events_.pop();
      if (ev.time < now_) violations_.push_back("event time went backwards");
      // Telemetry ticks fire on exact interval boundaries between events,
      // so the sampled series are independent of event spacing.
      telemetry_tick_until(std::max(now_, ev.time));
      now_ = std::max(now_, ev.time);
      ev.action();
    }
    // Empty batches (quantum-bounded epochs) still advance the clock, or
    // the loop would re-pick the same horizon forever.
    telemetry_tick_until(std::max(now_, horizon));
    now_ = std::max(now_, horizon);
  }
  executor_->stop();
  drain_staging();
}

void FrontEnd::breaker_failure(Device& d, int device_index) {
  ++d.breaker.consecutive_failures;
  if (d.breaker.consecutive_failures >= kBreakerThreshold) {
    d.breaker.open = true;
    const unsigned exp = std::min(d.breaker.opens, 10u);
    d.breaker.open_until = now_ + kBreakerBackoff * (u64{1} << exp);
    ++d.breaker.opens;
    metrics_.counter("serve.breaker.opens").add();
    // An opening breaker is the canonical black-box moment: the first one
    // freezes the post-mortem with every shard's recent history intact.
    const std::string shard = device_shard(device_index);
    flight_.error(shard, now_, "breaker", "breaker-open",
                  "failures=" + std::to_string(d.breaker.consecutive_failures) +
                      " until_us=" + std::to_string(d.breaker.open_until.us()));
    flight_.trigger(shard, now_, "breaker-open");
  }
}

void FrontEnd::attempt_failed(Request r, int device_index, const std::string& why) {
  breaker_failure(*devices_[device_index], device_index);
  metrics_.counter("serve.attempt_failures").add();
  metrics_.counter("serve.fail_reason." + why).add();
  flight_.warn(device_shard(device_index), now_, "serve", "attempt-failed",
               "req=" + std::to_string(r.id) + " why=" + why);

  if (r.attempts < kMaxAttempts) {
    // One retry, jittered backoff, pinned away from the failed device.
    const double jit = 1.0 + 0.5 * jitter_.uniform();
    const TimePs delay = TimePs::from_us(
        kRetryBackoff.us() * static_cast<double>(u64{1} << (r.attempts - 1)) * jit);
    const TimePs retry_at = now_ + delay;
    if (retry_at + r.est_cost <= r.deadline) {
      metrics_.counter("serve.retries").add();
      schedule(retry_at, [this, r]() mutable {
        ClassQueues::PushResult pushed = queues_.push(std::move(r));
        for (Request& victim : pushed.shed) {
          check_shed_order(victim);
          terminal(victim, Outcome::kShed, false);
        }
        try_dispatch();
      });
      try_dispatch();
      return;
    }
  }
  terminal(r, Outcome::kTimedOut, false);
  try_dispatch();
}

void FrontEnd::run_software(Request r) {
  // Serialized software executor: correct but slow, the last resort when
  // the entire fleet is unschedulable.
  const TimePs start = std::max(now_, sw_free_);
  const TimePs done_at = start + kSoftwareCost;
  sw_free_ = done_at;
  schedule(done_at, [this, r]() {
    terminal(r, Outcome::kCompleted, true);
    try_dispatch();
  });
}

void FrontEnd::run(WorkloadGenerator& gen, u64 max_requests) {
  gen_ = &gen;
  max_requests_ = max_requests;
  admission_ = std::make_unique<AdmissionController>(gen.tenants(), metrics_);
  for (Request& r : gen.initial_arrivals()) {
    Request req = std::move(r);
    schedule(req.arrival, [this, req, &gen, max_requests]() mutable {
      on_arrival(std::move(req), gen, max_requests);
    });
  }

  run_loop();
  gen_ = nullptr;

  // Anything still queued when the arrival streams dried up is shed: it
  // must still terminate exactly once.
  for (Request& r : queues_.drain()) {
    terminal(r, Outcome::kShed, false);
  }

  if (!violations_.empty()) {
    flight_.trigger("frontend", now_, "invariant-violation");
  }

  // Resolve tail: the counters are frozen now, so sampling one more slow
  // window (plus margin) decays every burn-rate window to zero and lets
  // firing alerts resolve deterministically before the run returns.
  if (telemetry_ != nullptr) {
    TimePs horizon = now_ + telemetry_->config().interval;
    if (slo_ != nullptr && !slo_->objectives().empty()) {
      horizon = horizon + slo_->policy().slow_window + telemetry_->config().interval;
    }
    telemetry_tick_until(horizon);
  }
}

u64 FrontEnd::fault_fires() const {
  u64 total = 0;
  for (const auto& d : devices_) total += d->chaos.total_fires();
  return total;
}

u64 FrontEnd::fleet_events_executed() const {
  u64 total = 0;
  for (const auto& d : devices_) {
    total += d->system.sim().events_executed() + d->system.sim().inlined_edges();
  }
  return total;
}

u64 FrontEnd::fleet_kernel_events() const {
  u64 total = 0;
  for (const auto& d : devices_) total += d->system.sim().events_executed();
  return total;
}

std::string FrontEnd::health_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (i != 0) os << ",";
    os << devices_[i]->txn.health().render_json();
  }
  os << "]";
  return os.str();
}

}  // namespace uparc::serve
