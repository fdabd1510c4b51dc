// Tests for the sharded parallel executor: barrier-epoch protocol, message
// merge order, ownership handoff round-trips, wedge handling, the
// coordinator as worker 0, and the worker-count invariance of the serve
// fleet artifacts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/soak.hpp"
#include "sim/kernel.hpp"
#include "sim/parallel.hpp"

namespace uparc::sim {
namespace {

TEST(ParallelExecutor, MessagesMergeInTimeShardSeqOrder) {
  // The delivered stream is a pure function of shard content: (t, shard,
  // seq) order, identical for any worker count.
  for (unsigned workers : {1u, 3u}) {
    Simulation a;
    Simulation b;
    ParallelExecutor ex(workers);
    const ShardId sa = ex.add_shard(&a, "a");
    const ShardId sb = ex.add_shard(&b, "b");
    std::vector<std::string> log;
    ex.set_sink([&](TimePs, std::function<void()> fn) { fn(); });
    ex.start();
    ex.post(sa, [&ex, sa, &log] {
      ex.send(sa, TimePs(30), [&log] { log.push_back("a@30"); });
      ex.send(sa, TimePs(30), [&log] { log.push_back("a@30#2"); });
      ex.send(sa, TimePs(30), [&log] { log.push_back("a@30#3"); });
    });
    ex.post(sb, [&ex, sb, &log] {
      ex.send(sb, TimePs(10), [&log] { log.push_back("b@10"); });
      ex.send(sb, TimePs(30), [&log] { log.push_back("b@30"); });
    });
    ex.run_epoch({TimePs(100), TimePs(100)});
    ex.stop();
    // b@30 and a@30#2 share (t, seq): the shard breaks the tie, and all of
    // a's messages at 30 precede b's.
    EXPECT_EQ(log, (std::vector<std::string>{"b@10", "a@30", "a@30#2", "a@30#3", "b@30"}))
        << workers << " workers";
    EXPECT_EQ(ex.stats().epochs, 1u);
    EXPECT_EQ(ex.stats().messages, 5u);
  }
}

TEST(ParallelExecutor, ShardsAdvanceToEpochTargets) {
  Simulation a;
  Simulation b;
  int fired = 0;
  ParallelExecutor ex(2);
  const ShardId sa = ex.add_shard(&a, "a");
  ex.add_shard(&b, "b");
  ex.start();
  ex.post(sa, [&a, &fired] { a.schedule_at(TimePs(50), [&fired] { ++fired; }); });
  ex.run_epoch({TimePs(40), TimePs(40)});
  EXPECT_EQ(fired, 0);  // event at 50 is beyond the first horizon
  ex.run_epoch({TimePs(60), TimePs(60)});
  ex.stop();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(a.now(), TimePs(60));
  EXPECT_EQ(b.now(), TimePs(60));
}

TEST(ParallelExecutor, HandoffRoundTripsBalanceAndAudit) {
  Simulation s;
  ParallelExecutor ex(2);
  const ShardId id = ex.add_shard(&s, "s");
  ex.start();
  ex.run_epoch({TimePs(10)});
  ex.acquire(id);
  // The coordinator owns the kernel during the drill window and may drive
  // it directly (the serve restart drill rebuilds a device here).
  int fired = 0;
  s.schedule_at(TimePs(15), [&fired] { ++fired; });
  s.run_until(TimePs(20));
  EXPECT_EQ(fired, 1);
  ex.release(id, &s);
  ex.run_epoch({TimePs(30)});
  ex.stop();
  // Every release paired with an adopt: start, acquire, release, stop.
  EXPECT_EQ(s.topology().handoff_releases(), s.topology().handoff_adopts());
  EXPECT_EQ(s.topology().handoff_releases(), 4u);
}

TEST(ParallelExecutor, WedgedShardReportsOnceAndParks) {
  Simulation s;
  ParallelExecutor ex(1);
  const ShardId id = ex.add_shard(&s, "s");
  std::vector<std::string> errors;
  ex.set_error_handler([&](ShardId shard, const std::string& what) {
    errors.push_back(std::to_string(shard) + ": " + what);
  });
  ex.start();
  ex.post(id, [] { throw std::runtime_error("boom"); });
  ex.run_epoch({TimePs(10)});
  EXPECT_EQ(errors.size(), 1u);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("boom"), std::string::npos) << errors[0];
  // Parked: later epochs drop this shard's jobs, never advance it, and
  // never re-report the wedge.
  int ran = 0;
  ex.post(id, [&ran] { ++ran; });
  ex.run_epoch({TimePs(20)});
  ex.stop();
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(s.now(), TimePs(0));  // the throwing epoch never advanced it
}

TEST(ParallelExecutor, ZeroWorkersRunTheProtocolInlineOnTheCaller) {
  // No thread: jobs, advances, handoffs and deliveries all run on the
  // calling thread, in the order one worker would run them.
  const std::thread::id caller = std::this_thread::get_id();
  bool off_caller = false;
  Simulation a;
  Simulation b;
  ParallelExecutor ex(0);
  const ShardId sa = ex.add_shard(&a, "a");
  const ShardId sb = ex.add_shard(&b, "b");
  std::vector<std::string> log;
  std::vector<std::string> errors;
  ex.set_sink([&](TimePs, std::function<void()> fn) { fn(); });
  ex.set_error_handler([&](ShardId shard, const std::string& what) {
    errors.push_back(std::to_string(shard) + ": " + what);
  });
  ex.start();

  // Jobs run before the advance, with the shard still at its old horizon;
  // messages merge in (t, shard, seq) order after every shard ran.
  ex.post(sa, [&] {
    off_caller = off_caller || std::this_thread::get_id() != caller;
    log.push_back("job@" + std::to_string(a.now().ps()));
    a.schedule_at(TimePs(20), [&] {
      log.push_back("event@20");
      ex.send(sa, TimePs(30), [&log] { log.push_back("a@30"); });
    });
  });
  ex.post(sb, [&] {
    ex.send(sb, TimePs(30), [&log] { log.push_back("b@30"); });
    ex.send(sb, TimePs(10), [&log] { log.push_back("b@10"); });
  });
  ex.run_epoch({TimePs(40), TimePs(40)});
  EXPECT_EQ(log, (std::vector<std::string>{"job@0", "event@20", "b@10", "a@30", "b@30"}));
  EXPECT_EQ(a.now(), TimePs(40));
  EXPECT_EQ(b.now(), TimePs(40));

  // A throwing shard is reported once and parked for good.
  ex.post(sb, [] { throw std::runtime_error("boom"); });
  ex.run_epoch({TimePs(50), TimePs(50)});
  int parked_ran = 0;
  ex.post(sb, [&parked_ran] { ++parked_ran; });
  ex.run_epoch({TimePs(60), TimePs(60)});
  EXPECT_EQ(errors, (std::vector<std::string>{"1: boom"}));
  EXPECT_EQ(parked_ran, 0);
  EXPECT_EQ(b.now(), TimePs(40));
  EXPECT_EQ(a.now(), TimePs(60));

  // The restart drill: take the wedged shard back, install a replacement
  // kernel, and the executor advances the replacement from then on.
  ex.acquire(sb);
  Simulation fresh;
  fresh.run_until(TimePs(60));
  ex.release(sb, &fresh);
  int fresh_ran = 0;
  ex.post(sb, [&] {
    off_caller = off_caller || std::this_thread::get_id() != caller;
    ++fresh_ran;
  });
  ex.run_epoch({TimePs(70), TimePs(70)});
  ex.stop();
  EXPECT_EQ(fresh_ran, 1);
  EXPECT_EQ(fresh.now(), TimePs(70));
  EXPECT_EQ(b.now(), TimePs(40));
  EXPECT_EQ(errors.size(), 1u);
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(ex.stats().epochs, 4u);

  // Every release found its adopt (what iso.shard.handoff audits): start
  // or release() hands each kernel over, acquire() or stop() hands it back.
  for (const Simulation* s : {&a, &b, &fresh}) {
    EXPECT_EQ(s->topology().handoff_releases(), s->topology().handoff_adopts());
    EXPECT_EQ(s->topology().handoff_releases(), 2u);
  }
}

TEST(ParallelExecutor, CoordinatorRunsWorkerZerosShards) {
  // The coordinator is worker 0: with 3 workers shard 0 runs on the
  // calling thread and shards 1 and 2 on the two pool threads, also across
  // a handoff drill on shard 0.
  const std::thread::id caller = std::this_thread::get_id();
  Simulation sims[3];
  ParallelExecutor ex(3);
  for (int i = 0; i < 3; ++i) ex.add_shard(&sims[i], "s" + std::to_string(i));
  std::thread::id ran_on[3];
  auto post_all = [&] {
    for (ShardId id = 0; id < 3; ++id) {
      ex.post(id, [&ran_on, id] { ran_on[id] = std::this_thread::get_id(); });
    }
  };
  ex.start();
  post_all();
  ex.run_epoch({TimePs(10), TimePs(10), TimePs(10)});
  EXPECT_EQ(ran_on[0], caller);
  EXPECT_NE(ran_on[1], caller);
  EXPECT_NE(ran_on[2], caller);
  EXPECT_NE(ran_on[1], ran_on[2]);

  ex.acquire(0);
  ex.release(0, &sims[0]);
  ran_on[0] = ran_on[1] = ran_on[2] = std::thread::id();
  post_all();
  ex.run_epoch({TimePs(20), TimePs(20), TimePs(20)});
  ex.stop();
  EXPECT_EQ(ran_on[0], caller);
  EXPECT_NE(ran_on[1], caller);
  EXPECT_NE(ran_on[2], caller);
  // Every release paired with an adopt: start and stop for each shard,
  // plus acquire and release for shard 0.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sims[i].now(), TimePs(20)) << "shard " << i;
    EXPECT_EQ(sims[i].topology().handoff_releases(), sims[i].topology().handoff_adopts())
        << "shard " << i;
    EXPECT_EQ(sims[i].topology().handoff_releases(), i == 0 ? 4u : 2u) << "shard " << i;
  }
}

// ---------------------------------------------------------------------------
// Worker-count invariance over the real serve fleet: the acceptance
// contract for the executor. All seven artifacts must match 1 worker byte
// for byte — also in the faulted + restart-drill scenario. (0 workers run
// the 1-worker code.)

TEST(ParallelServe, WorkerCountInvariantArtifacts) {
  serve::ServeSoakConfig cfg;
  cfg.seed = 3;
  cfg.requests = 80;
  cfg.devices = 3;
  cfg.fault_scale = 1.0;
  cfg.telemetry_interval = TimePs::from_us(250);
  cfg.restart_after_loads = 10;
  cfg.workers = 1;
  const serve::ServeSoakReport one = serve::run_soak(cfg);
  EXPECT_TRUE(one.ok()) << one.summary();
  for (unsigned workers : {2u, 3u, 4u}) {
    cfg.workers = workers;
    const serve::ServeSoakReport n = serve::run_soak(cfg);
    EXPECT_TRUE(n.ok()) << n.summary();
    EXPECT_EQ(one.metrics_json, n.metrics_json) << workers << " workers";
    EXPECT_EQ(one.health_json, n.health_json) << workers << " workers";
    EXPECT_EQ(one.telemetry_json, n.telemetry_json) << workers << " workers";
    EXPECT_EQ(one.telemetry_csv, n.telemetry_csv) << workers << " workers";
    EXPECT_EQ(one.alerts_json, n.alerts_json) << workers << " workers";
    EXPECT_EQ(one.flight_json, n.flight_json) << workers << " workers";
    EXPECT_EQ(one.summary(), n.summary()) << workers << " workers";
  }
}

TEST(ParallelServe, FaultedWideFleetSoakHoldsInvariants) {
  serve::ServeSoakConfig cfg;
  cfg.seed = 1;
  cfg.requests = 150;
  cfg.devices = 8;
  cfg.fault_scale = 1.0;
  cfg.workers = 4;
  const serve::ServeSoakReport report = serve::run_soak(cfg);
  EXPECT_TRUE(report.ok()) << report.summary();
  u64 completed = 0;
  for (u64 c : report.completed) completed += c;
  EXPECT_GT(completed, 0u);
}

}  // namespace
}  // namespace uparc::sim
