// Tests for the serving front end: workload determinism, queue/admission
// semantics, failover, and the overload soak invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "serve/soak.hpp"

namespace uparc::serve {
namespace {

std::vector<TenantSpec> replay_tenants() {
  TenantSpec open;
  open.name = "open";
  open.qos = QosClass::kStandard;
  open.mode = ArrivalMode::kOpenLoop;
  open.rate_rps = 5000;
  TenantSpec closed;
  closed.name = "closed";
  closed.qos = QosClass::kGuaranteed;
  closed.mode = ArrivalMode::kClosedLoop;
  closed.concurrency = 3;
  closed.think_time = TimePs::from_us(200);
  TenantSpec bursty;
  bursty.name = "bursty";
  bursty.qos = QosClass::kBestEffort;
  bursty.mode = ArrivalMode::kBursty;
  bursty.rate_rps = 3000;
  bursty.burst_factor = 10;
  return {open, closed, bursty};
}

// Satellite: same seed => identical arrival trace, across all three
// arrival modes at once.
TEST(WorkloadTest, SameSeedReplaysIdenticalTrace) {
  WorkloadGenerator a(replay_tenants(), 4, 42);
  WorkloadGenerator b(replay_tenants(), 4, 42);
  const auto ta = a.trace(500);
  const auto tb = b.trace(500);
  ASSERT_EQ(ta.size(), tb.size());
  ASSERT_EQ(ta.size(), 500u);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].id, tb[i].id);
    EXPECT_EQ(ta[i].tenant, tb[i].tenant);
    EXPECT_EQ(ta[i].qos, tb[i].qos);
    EXPECT_EQ(ta[i].module, tb[i].module);
    EXPECT_EQ(ta[i].arrival, tb[i].arrival);
    EXPECT_EQ(ta[i].deadline, tb[i].deadline);
  }
}

TEST(WorkloadTest, DifferentSeedsDiverge) {
  WorkloadGenerator a(replay_tenants(), 4, 1);
  WorkloadGenerator b(replay_tenants(), 4, 2);
  const auto ta = a.trace(100);
  const auto tb = b.trace(100);
  bool differs = false;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    if (ta[i].arrival != tb[i].arrival || ta[i].module != tb[i].module) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, ArrivalsAreMonotoneAndDeadlinesConsistent) {
  WorkloadGenerator gen(replay_tenants(), 4, 7);
  const auto trace = gen.trace(400);
  TimePs last{};
  for (const Request& r : trace) {
    EXPECT_GE(r.arrival, last);
    last = r.arrival;
    EXPECT_GT(r.deadline, r.arrival);
  }
}

TEST(WorkloadTest, ClosedLoopFollowsCompletions) {
  std::vector<TenantSpec> tenants = {replay_tenants()[1]};
  WorkloadGenerator gen(tenants, 2, 3);
  const auto initial = gen.initial_arrivals();
  EXPECT_EQ(initial.size(), 3u);  // one per logical client
  EXPECT_EQ(gen.next_open(0), std::nullopt);
  const Request next = gen.next_closed(0, TimePs::from_ms(5));
  EXPECT_GT(next.arrival, TimePs::from_ms(5));
}

Request make_req(u64 id, QosClass qos, TimePs deadline, TimePs cost = TimePs::from_us(100)) {
  Request r;
  r.id = id;
  r.qos = qos;
  r.deadline = deadline;
  r.est_cost = cost;
  r.module = "m0";
  return r;
}

// Satellite: EDF-queue property — admitted guaranteed requests are never
// reordered behind lower classes, whatever the interleaving.
TEST(ClassQueuesTest, GuaranteedNeverReorderedBehindLowerClasses) {
  Prng prng(99);
  ClassQueues q(128);
  u64 id = 0;
  std::vector<Request> expired;
  for (int round = 0; round < 2000; ++round) {
    if (prng.chance(0.6) || q.empty()) {
      const auto qos = static_cast<QosClass>(prng.below(3));
      const TimePs deadline = TimePs::from_us(10 + prng.below(100000));
      auto res = q.push(make_req(id++, qos, deadline));
      (void)res;
    } else {
      const bool had_guaranteed = q.size(QosClass::kGuaranteed) > 0;
      auto r = q.pop(TimePs{}, expired);
      ASSERT_TRUE(r.has_value());
      if (had_guaranteed) {
        EXPECT_EQ(r->qos, QosClass::kGuaranteed)
            << "a lower class was dispatched while guaranteed work waited";
      }
    }
  }
  EXPECT_TRUE(expired.empty());  // popped at t=0: nothing can have expired
}

TEST(ClassQueuesTest, EdfWithinClass) {
  ClassQueues q(16);
  (void)q.push(make_req(0, QosClass::kStandard, TimePs::from_us(900)));
  (void)q.push(make_req(1, QosClass::kStandard, TimePs::from_us(100)));
  (void)q.push(make_req(2, QosClass::kStandard, TimePs::from_us(500)));
  std::vector<Request> expired;
  EXPECT_EQ(q.pop(TimePs{}, expired)->id, 1u);
  EXPECT_EQ(q.pop(TimePs{}, expired)->id, 2u);
  EXPECT_EQ(q.pop(TimePs{}, expired)->id, 0u);
}

TEST(ClassQueuesTest, ShedsStrictlyLowestClassFirst) {
  ClassQueues q(3);
  (void)q.push(make_req(0, QosClass::kBestEffort, TimePs::from_us(100)));
  (void)q.push(make_req(1, QosClass::kBestEffort, TimePs::from_us(200)));
  (void)q.push(make_req(2, QosClass::kStandard, TimePs::from_us(100)));
  // Queue full: a guaranteed push must displace the best-effort entry with
  // the *latest* deadline, not the standard one and not itself.
  auto res = q.push(make_req(3, QosClass::kGuaranteed, TimePs::from_us(50)));
  EXPECT_TRUE(res.queued);
  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].id, 1u);
  EXPECT_EQ(res.shed[0].qos, QosClass::kBestEffort);

  // An incoming best-effort request with the latest deadline of its class
  // is itself the victim when nothing lower exists.
  auto res2 = q.push(make_req(4, QosClass::kBestEffort, TimePs::from_ms(10)));
  EXPECT_FALSE(res2.queued);
  ASSERT_EQ(res2.shed.size(), 1u);
  EXPECT_EQ(res2.shed[0].id, 4u);
}

TEST(ClassQueuesTest, IncomingGuaranteedShedOnlyAmongPeers) {
  ClassQueues q(2);
  (void)q.push(make_req(0, QosClass::kGuaranteed, TimePs::from_us(100)));
  (void)q.push(make_req(1, QosClass::kGuaranteed, TimePs::from_us(200)));
  // All-guaranteed full queue: the latest-deadline guaranteed entry is the
  // only legal victim.
  auto res = q.push(make_req(2, QosClass::kGuaranteed, TimePs::from_us(300)));
  EXPECT_FALSE(res.queued);
  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].id, 2u);

  auto res2 = q.push(make_req(3, QosClass::kGuaranteed, TimePs::from_us(50)));
  EXPECT_TRUE(res2.queued);
  ASSERT_EQ(res2.shed.size(), 1u);
  EXPECT_EQ(res2.shed[0].id, 1u);
}

TEST(ClassQueuesTest, PopSweepsExpiredEntries) {
  ClassQueues q(8);
  (void)q.push(make_req(0, QosClass::kStandard, TimePs::from_us(10)));
  (void)q.push(make_req(1, QosClass::kStandard, TimePs::from_us(20)));
  (void)q.push(make_req(2, QosClass::kStandard, TimePs::from_ms(10)));
  std::vector<Request> expired;
  auto r = q.pop(TimePs::from_us(50), expired);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(TokenBucketTest, RefillsOverSimulatedTime) {
  TokenBucket bucket(1000.0, 2.0);  // 1000 tokens/s, burst 2
  EXPECT_TRUE(bucket.try_take(TimePs{}));
  EXPECT_TRUE(bucket.try_take(TimePs{}));
  EXPECT_FALSE(bucket.try_take(TimePs{}));  // burst exhausted
  // 1 ms later exactly one token has refilled.
  EXPECT_TRUE(bucket.try_take(TimePs::from_ms(1)));
  EXPECT_FALSE(bucket.try_take(TimePs::from_ms(1)));
  // Refill caps at the burst size no matter how long the idle gap.
  EXPECT_TRUE(bucket.try_take(TimePs::from_ms(1000)));
  EXPECT_TRUE(bucket.try_take(TimePs::from_ms(1000)));
  EXPECT_FALSE(bucket.try_take(TimePs::from_ms(1000)));
}

TEST(AdmissionTest, RejectsInfeasibleDeadlines) {
  obs::Registry metrics;
  TenantSpec t;
  std::vector<TenantSpec> tenants = {t};
  AdmissionController admission(tenants, metrics);

  Request ok = make_req(0, QosClass::kStandard, TimePs::from_ms(1));
  EXPECT_EQ(admission.admit(ok, TimePs{}, TimePs{}, 1, TimePs::from_us(100)),
            AdmitVerdict::kAdmit);

  // Backlog alone pushes the finish past the deadline.
  Request late = make_req(1, QosClass::kStandard, TimePs::from_ms(1));
  EXPECT_EQ(admission.admit(late, TimePs{}, TimePs::from_ms(5), 1, TimePs::from_us(100)),
            AdmitVerdict::kRejectInfeasible);
  EXPECT_EQ(metrics.counter_value("serve.reject.infeasible"), 1.0);

  // More devices drain the same backlog in parallel: feasible again.
  Request par = make_req(2, QosClass::kStandard, TimePs::from_ms(1));
  EXPECT_EQ(admission.admit(par, TimePs{}, TimePs::from_ms(5), 8, TimePs::from_us(100)),
            AdmitVerdict::kAdmit);
}

TEST(AdmissionTest, TokenBucketRejectionsCount) {
  obs::Registry metrics;
  TenantSpec t;
  t.bucket_rate_rps = 10.0;
  t.bucket_burst = 1.0;
  std::vector<TenantSpec> tenants = {t};
  AdmissionController admission(tenants, metrics);
  Request r = make_req(0, QosClass::kStandard, TimePs::from_ms(100));
  EXPECT_EQ(admission.admit(r, TimePs{}, TimePs{}, 1, TimePs::from_us(10)),
            AdmitVerdict::kAdmit);
  EXPECT_EQ(admission.admit(r, TimePs{}, TimePs{}, 1, TimePs::from_us(10)),
            AdmitVerdict::kRejectBucket);
  EXPECT_EQ(metrics.counter_value("serve.reject.bucket"), 1.0);
}

// End-to-end: a clean 1x-rated run must complete everything in-deadline
// for the guaranteed class, with zero invariant violations.
TEST(ServeSoakTest, CleanRunAtRatedLoadMeetsGuaranteedDeadlines) {
  ServeSoakConfig cfg;
  cfg.seed = 11;
  cfg.requests = 300;
  cfg.devices = 2;
  cfg.load_factor = 1.0;
  cfg.fault_scale = 0.0;
  const ServeSoakReport report = run_soak(cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.deadline_miss[0], 0u) << report.summary();
  EXPECT_EQ(report.shed[0], 0u) << report.summary();
  EXPECT_EQ(report.timed_out[0], 0u) << report.summary();
  EXPECT_GT(report.completed[0] + report.completed[1] + report.completed[2], 0u);
}

// Overload with faults: invariants hold and shedding lands on best effort.
TEST(ServeSoakTest, OverloadWithFaultsHoldsInvariants) {
  ServeSoakConfig cfg;
  cfg.seed = 23;
  cfg.requests = 400;
  cfg.devices = 2;
  cfg.load_factor = 2.0;
  cfg.fault_scale = 1.0;
  const ServeSoakReport report = run_soak(cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.shed[0], 0u) << report.summary();
  EXPECT_NE(report.metrics_json.find("serve.latency_us"), std::string::npos);
  EXPECT_NE(report.health_json.find("\"regions\""), std::string::npos);
}

// An unknown arrival mix is a caller error, not a silent open-loop run.
TEST(ServeSoakTest, MakeTenantsRejectsUnknownDist) {
  ServeSoakConfig cfg;
  for (const char* dist : {"mixed", "open", "closed", "bursty"}) {
    cfg.dist = dist;
    EXPECT_EQ(make_tenants(cfg, 1000.0, TimePs::from_us(100)).size(), 3u) << dist;
  }
  for (const char* dist : {"bogus", "Mixed", ""}) {
    cfg.dist = dist;
    EXPECT_THROW((void)make_tenants(cfg, 1000.0, TimePs::from_us(100)),
                 std::invalid_argument)
        << dist;
  }
}

// Determinism: the same soak config twice produces identical outcomes.
TEST(ServeSoakTest, SoakIsDeterministic) {
  ServeSoakConfig cfg;
  cfg.seed = 5;
  cfg.requests = 150;
  cfg.load_factor = 1.5;
  cfg.fault_scale = 0.5;
  const ServeSoakReport a = run_soak(cfg);
  const ServeSoakReport b = run_soak(cfg);
  EXPECT_EQ(a.issued, b.issued);
  for (std::size_t c = 0; c < kQosClassCount; ++c) {
    EXPECT_EQ(a.completed[c], b.completed[c]);
    EXPECT_EQ(a.shed[c], b.shed[c]);
    EXPECT_EQ(a.timed_out[c], b.timed_out[c]);
    EXPECT_EQ(a.rejected[c], b.rejected[c]);
  }
  EXPECT_EQ(a.sim_ms, b.sim_ms);
}

TEST(BreakerJsonTest, RoundTripPreservesBackoffState) {
  Breaker b;
  b.consecutive_failures = 2;
  b.opens = 5;  // drives the backoff exponent: 5 opens = 32x base
  b.open = true;
  b.open_until = TimePs::from_ms(7);

  const Breaker restored = Breaker::from_json(b.to_json());
  EXPECT_EQ(restored.consecutive_failures, 2u);
  // Regression: a restored breaker continues its doubling schedule — losing
  // `opens` across a restart would reset a flapping device to short
  // backoffs and let it thrash the fleet.
  EXPECT_EQ(restored.opens, 5u);
  EXPECT_TRUE(restored.open);
  EXPECT_EQ(restored.open_until, TimePs::from_ms(7));

  EXPECT_THROW((void)Breaker::from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)Breaker::from_json("{\"opens\":1}"), std::out_of_range);
}

// serve.busy follows the loads in flight at every worker count: a loaded
// soak must sample some device busy.
TEST(ServeSoakTest, BusyGaugeSamplesLoadsInFlight) {
  ServeSoakConfig cfg;
  cfg.seed = 1;
  cfg.requests = 400;
  cfg.devices = 4;
  cfg.load_factor = 2.0;
  cfg.fault_scale = 1.0;
  cfg.telemetry_interval = TimePs::from_us(100);
  for (unsigned workers : {0u, 4u}) {
    cfg.workers = workers;
    const ServeSoakReport report = run_soak(cfg);
    EXPECT_TRUE(report.ok()) << report.summary();
    // Rows read "serve.busy{device=""dN""}",<t_us>,<value>.
    u64 samples = 0;
    u64 busy = 0;
    std::istringstream rows(report.telemetry_csv);
    for (std::string row; std::getline(rows, row);) {
      if (row.rfind("\"serve.busy{", 0) != 0) continue;
      ++samples;
      if (row.substr(row.rfind(',') + 1) == "1") ++busy;
    }
    EXPECT_GT(samples, 0u) << workers << " workers";
    EXPECT_GT(busy, 0u) << workers << " workers";
  }
}

TEST(ServeSoakTest, RestartDrillRecoversControllersMidSoak) {
  ServeSoakConfig cfg;
  cfg.seed = 11;
  cfg.requests = 200;
  cfg.devices = 2;
  cfg.load_factor = 1.5;
  cfg.fault_scale = 1.0;
  cfg.restart_after_loads = 15;
  const ServeSoakReport report = run_soak(cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Both controllers crossed the quota and were cold-restarted from their
  // WALs mid-run; the run still satisfies every per-request invariant.
  EXPECT_EQ(report.restarts, 2u);

  // The drill itself must be deterministic.
  const ServeSoakReport again = run_soak(cfg);
  EXPECT_EQ(again.restarts, report.restarts);
  EXPECT_EQ(again.issued, report.issued);
  EXPECT_EQ(again.sim_ms, report.sim_ms);
}

}  // namespace
}  // namespace uparc::serve
