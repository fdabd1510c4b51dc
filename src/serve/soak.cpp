#include "serve/soak.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace uparc::serve {

std::string ServeSoakReport::summary() const {
  std::ostringstream out;
  out << "serve soak: " << issued << " requests, offered " << offered_rps
      << " rps vs rated " << rated_rps << " rps\n";
  for (std::size_t c = 0; c < kQosClassCount; ++c) {
    out << "  " << to_string(static_cast<QosClass>(c)) << ": completed "
        << completed[c] << " (miss " << deadline_miss[c] << ")  rejected "
        << rejected[c] << "  shed " << shed[c] << "  timed out " << timed_out[c]
        << "\n";
  }
  out << "  retries " << retries << "  breaker opens " << breaker_opens
      << "  software fallbacks " << software_fallbacks << "  fault fires "
      << fault_fires << "  controller restarts " << restarts << "\n"
      << "  slo alerts: fired " << alerts_fired << "  resolved " << alerts_resolved << "\n"
      << "  sim time " << sim_ms << " ms\n"
      << "  invariants: "
      << (ok() ? "OK (0 violations)"
               : ("VIOLATED (" + std::to_string(violations.size()) + ")"))
      << "\n";
  for (const ServeSoakViolation& v : violations) {
    out << "    request " << v.request << ": " << v.what << "\n";
  }
  return out.str();
}

std::vector<TenantSpec> make_tenants(const ServeSoakConfig& config, double rated_rps,
                                     TimePs warm_cost) {
  const double offered = rated_rps * config.load_factor;
  auto deadline = [&](double x) { return TimePs::from_us(warm_cost.us() * x); };

  ArrivalMode forced = ArrivalMode::kOpenLoop;
  const bool mixed = config.dist == "mixed";
  if (config.dist == "closed") {
    forced = ArrivalMode::kClosedLoop;
  } else if (config.dist == "bursty") {
    forced = ArrivalMode::kBursty;
  } else if (!mixed && config.dist != "open") {
    throw std::invalid_argument("unknown dist '" + config.dist +
                                "' (use mixed, open, closed or bursty)");
  }

  std::vector<TenantSpec> tenants;
  // Guaranteed: a modest closed-loop slice (20% of offered load) with a
  // generous deadline — the class the soak requires to see zero shedding.
  TenantSpec g;
  g.name = "tenant_guaranteed";
  g.qos = QosClass::kGuaranteed;
  g.mode = mixed ? ArrivalMode::kClosedLoop : forced;
  g.rate_rps = offered * 0.2;
  g.deadline = deadline(kGuaranteedDeadlineX);
  // Closed loop: concurrency sized so the slice's offered rate is about
  // right at the warm service time (rate = concurrency / (service+think)).
  g.think_time = warm_cost;
  g.concurrency = std::max(
      1u, static_cast<unsigned>(g.rate_rps * 2.0 * warm_cost.us() * 1e-6));
  tenants.push_back(g);

  // Standard: open-loop Poisson at 40% of offered load.
  TenantSpec s;
  s.name = "tenant_standard";
  s.qos = QosClass::kStandard;
  s.mode = mixed ? ArrivalMode::kOpenLoop : forced;
  s.rate_rps = offered * 0.4;
  s.deadline = deadline(kStandardDeadlineX);
  tenants.push_back(s);

  // Best effort: bursty MMPP at 40% of offered load — the class that
  // absorbs shedding under overload.
  TenantSpec b;
  b.name = "tenant_best_effort";
  b.qos = QosClass::kBestEffort;
  b.mode = mixed ? ArrivalMode::kBursty : forced;
  b.rate_rps = offered * 0.4;
  b.deadline = deadline(kBestEffortDeadlineX);
  tenants.push_back(b);
  return tenants;
}

std::vector<std::string> default_slo_lines(TimePs warm_cost) {
  auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  const double g_deadline_us = warm_cost.us() * kGuaranteedDeadlineX;
  std::vector<std::string> lines;
  // Fleet-merged guaranteed-class latency: the weighted p99 across devices
  // must hold the class's deadline budget.
  lines.push_back(
      "guaranteed_p99: hist(serve.latency_us{device=\"fleet\",qos_class=\"guaranteed\"}) "
      "p99 <= " +
      fmt(g_deadline_us));
  // Standard-class goodput: in-deadline completions over terminals of the
  // class. The guaranteed class is protected by admission + priority even
  // under overload, and best-effort bursts are rejected by design at any
  // load — the standard class is where overload first shows as user harm
  // (a clean 1x run holds ~1.0; 2x collapses it to ~0.3).
  lines.push_back("standard_goodput: ratio(serve.goodput.standard, serve.finished.standard) >= 0.9");
  // Best-effort shedding is the designed overload valve, but a sustained
  // shed fraction above 20% of issued load means real capacity shortfall.
  lines.push_back("shed_ratio: ratio(serve.shed.best_effort, serve.issued) <= 0.2");
  return lines;
}

ServeSoakReport run_soak(const ServeSoakConfig& config) {
  ServeSoakReport report;
  auto violate = [&](u64 id, std::string what) {
    report.violations.push_back({id, std::move(what)});
  };

  FrontEndConfig fe_cfg;
  fe_cfg.seed = config.seed;
  fe_cfg.devices = config.devices;
  fe_cfg.regions_per_device = config.regions_per_device;
  fe_cfg.modules = config.modules;
  fe_cfg.fault_scale = config.fault_scale;
  fe_cfg.queue_capacity = config.queue_capacity;
  fe_cfg.restart_after_loads = config.restart_after_loads;
  fe_cfg.workers = config.workers;
  FrontEnd fe(fe_cfg);

  report.rated_rps = fe.rated_rps();
  report.offered_rps = fe.rated_rps() * config.load_factor;

  if (config.telemetry_interval.ps() > 0) {
    obs::TelemetryConfig tcfg;
    tcfg.interval = config.telemetry_interval;
    tcfg.capacity = config.telemetry_capacity;
    fe.enable_telemetry(tcfg);
    const std::vector<std::string> lines =
        config.slo_lines.empty() ? default_slo_lines(fe.warm_cost())
                                 : config.slo_lines;
    for (const std::string& line : lines) {
      Result<obs::SloObjective> parsed = obs::parse_objective(line);
      if (!parsed.ok()) {
        throw std::invalid_argument("run_soak SLO: " + parsed.error().message);
      }
      fe.add_slo(std::move(parsed).value());
    }
  }

  WorkloadGenerator gen(make_tenants(config, fe.rated_rps(), fe.warm_cost()),
                        config.modules, config.seed);
  fe.run(gen, config.requests);

  // Front-end-side runtime checks (double-terminal, shed ordering at shed
  // time, monotone event time) surface here.
  for (const std::string& v : fe.violations()) violate(~u64{0}, v);

  report.issued = gen.issued();
  report.sim_ms = fe.now().ms();
  for (const RequestRecord& rec : fe.records()) {
    const auto cls = static_cast<std::size_t>(rec.req.qos);
    switch (rec.outcome) {
      case Outcome::kCompleted:
        ++report.completed[cls];
        if (rec.deadline_miss) ++report.deadline_miss[cls];
        // Deadline accounting must be consistent with the timestamps.
        if (rec.deadline_miss != (rec.finished > rec.req.deadline)) {
          violate(rec.req.id, "completed with inconsistent deadline accounting");
        }
        if (rec.software) ++report.software_fallbacks;
        break;
      case Outcome::kRejected:
        ++report.rejected[cls];
        break;
      case Outcome::kShed:
        ++report.shed[cls];
        break;
      case Outcome::kTimedOut:
        ++report.timed_out[cls];
        break;
      case Outcome::kPending:
        violate(rec.req.id, "request never reached a terminal state");
        break;
    }
    if (rec.outcome != Outcome::kPending && rec.terminal_events != 1) {
      violate(rec.req.id, "request terminated " +
                              std::to_string(rec.terminal_events) + " times");
    }
    if (rec.outcome != Outcome::kPending && rec.finished < rec.req.arrival) {
      violate(rec.req.id, "terminal before arrival: time accounting broken");
    }
  }

  // Cross-check the record table against the metrics counters: they are
  // maintained independently, so a mismatch means lost bookkeeping.
  u64 terminals = 0;
  for (std::size_t c = 0; c < kQosClassCount; ++c) {
    terminals += report.completed[c] + report.rejected[c] + report.shed[c] +
                 report.timed_out[c];
  }
  if (terminals != report.issued) {
    violate(~u64{0}, "issued " + std::to_string(report.issued) + " requests but " +
                         std::to_string(terminals) + " terminals recorded");
  }

  // Class ordering at the aggregate level: the guaranteed class must not
  // shed while any lower class had requests admitted at all. (The precise
  // at-shed-time check runs inside the front end; this is the blunt
  // end-of-run version that catches accounting drift.)
  const u64 lower_admitted =
      report.completed[1] + report.timed_out[1] + report.completed[2] + report.timed_out[2];
  if (report.shed[0] > 0 && lower_admitted > 0) {
    violate(~u64{0}, "guaranteed-class requests shed while lower classes were served");
  }

  // A failed invariant is a post-mortem trigger of its own (the breaker /
  // txn paths may never have tripped in the run that went wrong).
  if (!report.ok()) {
    fe.flight().trigger("soak", fe.now(), "invariant-violation");
  }

  obs::Registry& m = fe.metrics();
  report.retries = static_cast<u64>(m.counter_value("serve.retries"));
  report.breaker_opens = static_cast<u64>(m.counter_value("serve.breaker.opens"));
  report.fault_fires = fe.fault_fires();
  report.restarts = fe.restarts();
  report.metrics_json = m.render_json();
  report.health_json = fe.health_json();
  if (fe.telemetry() != nullptr) {
    report.telemetry_json = fe.telemetry()->render_json();
    report.telemetry_csv = fe.telemetry()->render_csv();
  }
  if (fe.slo() != nullptr) {
    report.alerts_fired = fe.slo()->fired();
    report.alerts_resolved = fe.slo()->resolved();
    report.alerts_json = fe.slo()->render_json();
  }
  report.flight_json =
      fe.flight().triggered() ? fe.flight().postmortem() : fe.flight().render_json();
  return report;
}

}  // namespace uparc::serve
