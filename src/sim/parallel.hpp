// Parallel sharded execution of independent Simulation kernels.
//
// Each shard is one sim::Simulation (one serve device) pinned to a fixed
// worker (shard i runs on worker i % workers — a pure function of the shard
// id, never of runtime timing). The coordinator is worker 0: N workers are
// the coordinator plus a pool of N - 1 threads, and 0 workers run as 1 (no
// pool; the coordinator runs every shard, in shard order). The coordinator
// advances the fleet in conservative barrier epochs:
//
//   1. per-shard jobs posted since the last epoch run on the shard's
//      worker (dispatching loads into the shard at its current time),
//   2. every shard runs run_until(target[shard]) — the epoch horizon,
//   3. barrier: all workers park,
//   4. messages the shards deposited (completions, notifications) are
//      delivered on the coordinator, merged in (time, shard, seq) order.
//
// The horizon is conservative: the coordinator picks it so that nothing a
// shard could send can affect another shard earlier than the next barrier,
// which makes the execution independent of worker count — byte-identical
// artifacts for 0, 1 and N workers is the acceptance contract, checked by
// `verify-determinism --scenario serve` and tests/parallel_test.cpp.
//
// Ownership: Simulations are single-owner shards (kernel owner-thread
// guard). start() moves every shard from the coordinator to its worker via
// the release_ownership()/adopt_ownership() latch-reset protocol; stop()
// moves them back. acquire()/release() do the same round-trip mid-run for
// one shard (the serve restart drill rebuilds a device on the coordinator
// and hands the fresh kernel back). All handoffs are counted in each
// shard's topology and audited by the iso.shard.handoff lint rule.
//
// This file is the ONE sanctioned user of raw threading primitives in the
// tree (see det.thread.raw and tools/detlint_allow.txt): the barrier
// protocol below is the only place thread scheduling exists, and it is
// invisible to simulated results by construction.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "sim/kernel.hpp"
#include "sim/topology.hpp"

namespace uparc::sim {

class ParallelExecutor {
 public:
  /// Delivery sink for shard->coordinator messages: called on the
  /// coordinator after each barrier, in merged (time, shard, seq) order.
  using Sink = std::function<void(TimePs t, std::function<void()> deliver)>;
  /// Called on the coordinator (after the barrier, before message
  /// delivery, in shard order) for every shard whose advance threw.
  using ErrorHandler = std::function<void(ShardId shard, const std::string& what)>;

  struct Stats {
    u64 epochs = 0;
    u64 jobs = 0;
    u64 messages = 0;
  };

  /// `workers` pinned workers, the calling (coordinator) thread being
  /// worker 0, so N workers run on N threads. 0 is taken as 1: no pool
  /// thread, every shard on the coordinator. Every worker count runs one
  /// protocol — jobs, advance, handoff flags, wedging and the merge — so
  /// all produce the same results.
  explicit ParallelExecutor(unsigned workers);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Registers a shard (before start()). Declares the executor's mailbox
  /// on the shard's topology as a cross-shard FIFO channel and pre-sizes
  /// the shard's event heap.
  ShardId add_shard(Simulation* sim, std::string name);

  /// Launches the pool (workers 1..N-1) and hands every shard to its
  /// worker (coordinator releases, worker adopts; worker 0's shards are
  /// adopted back by the coordinator at its first epoch).
  void start();
  /// Releases worker 0's shards on the coordinator, parks the pool, hands
  /// every other shard back to the coordinator (worker releases,
  /// coordinator adopts) and joins the threads. Pending jobs and
  /// undelivered messages are discarded. Idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] unsigned workers() const noexcept { return workers_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const std::string& shard_name(ShardId id) const {
    return shards_[id].name;
  }
  [[nodiscard]] Simulation* shard_sim(ShardId id) const { return shards_[id].sim; }

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  void set_error_handler(ErrorHandler handler) { error_handler_ = std::move(handler); }

  /// Queues `job` to run on `shard`'s worker at the start of the next
  /// epoch, before the shard advances. Coordinator only, FIFO per shard.
  void post(ShardId shard, std::function<void()> job);

  /// Deposits a coordinator-bound message stamped with coordinator-clock
  /// time `t`. Called from shard code (jobs, simulation callbacks) on the
  /// shard's worker; delivered through the sink after the next barrier.
  void send(ShardId from, TimePs t, std::function<void()> deliver);

  /// One conservative epoch: jobs, then run_until(targets[shard]) per
  /// shard (TimePs{0} = jobs only, no advance), barrier, error handler for
  /// shards whose advance threw, then merged message delivery. `targets`
  /// must have one entry per shard. A shard whose advance ever threw is
  /// wedged: it is parked (jobs dropped, no advance) for the rest of the
  /// run so a poisoned kernel cannot re-throw every epoch.
  void run_epoch(const std::vector<TimePs>& targets);

  /// Ownership round-trip for one shard, mid-run: the worker releases the
  /// latch (via a jobs-only epoch) and the coordinator adopts it. The
  /// caller may then touch the shard's Simulation directly.
  void acquire(ShardId shard);
  /// Returns shard ownership to its worker, installing `sim` as the
  /// shard's kernel (the same one, or a rebuilt replacement — the serve
  /// restart drill swaps in a recovered device). The coordinator must
  /// currently own `sim`; the worker adopts it at the next epoch.
  void release(ShardId shard, Simulation* sim);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Name of the executor mailbox FIFO declared on every shard's topology.
  [[nodiscard]] static std::string mailbox_name(const std::string& shard_name) {
    return "parallel.mailbox." + shard_name;
  }

 private:
  struct Message {
    TimePs t;
    u64 seq;  ///< per-shard monotone: merge order is (t, shard, seq)
    std::function<void()> deliver;
  };

  struct Shard {
    Simulation* sim = nullptr;
    std::string name;
    std::vector<std::function<void()>> jobs;  ///< drained at epoch start
    std::vector<Message> outbox;              ///< drained at the barrier
    u64 message_seq = 0;
    TimePs target{};       ///< this epoch's horizon (0 = jobs only)
    bool adopt = false;    ///< worker must adopt_ownership() this epoch
    bool release = false;  ///< worker must release_ownership() this epoch
    bool wedged = false;    ///< advance threw once: parked for good
    bool detached = false;  ///< coordinator holds the shard (acquire())
    std::string error;      ///< this epoch's advance exception, if any
  };

  /// Declares the shard's mailbox channel/state on `sim`'s topology and
  /// pre-sizes its event heap (at add_shard, and again for a replacement
  /// kernel installed via release()).
  void declare_mailbox(Simulation& sim, const std::string& shard_name);
  void worker_loop(unsigned worker_index);
  /// Runs worker `worker_index`'s pinned shards for one epoch (solo =
  /// kNoShard for all of them, or one shard id for a handoff-only epoch).
  void run_pinned(unsigned worker_index, ShardId solo);
  /// Runs one shard's share of the current epoch (jobs + advance).
  void run_shard(Shard& shard);
  /// Worker side of shutdown: hands worker `worker_index`'s shards back.
  void release_pinned(unsigned worker_index);
  /// One epoch: wakes the pool, runs worker 0's shards on the coordinator,
  /// waits at the barrier, then the error handler and the merged message
  /// delivery.
  void epoch(ShardId solo);

  unsigned workers_;  ///< >= 1: shard i runs on worker i % workers_
  std::vector<Shard> shards_;
  std::vector<std::thread> pool_;
  Sink sink_;
  ErrorHandler error_handler_;
  Stats stats_;
  bool running_ = false;

  // Barrier state. `epoch_` is a generation counter: the coordinator bumps
  // it to release the pool, each pool worker runs its pinned shards for
  // that generation exactly once, and `pending_` counts pool workers still
  // inside the epoch. All shard state above
  // is only touched by its pinned worker between the two condition-variable
  // edges, so the mutex pair is the complete synchronization story
  // (TSan-clean by construction).
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  u64 epoch_ = 0;
  unsigned pending_ = 0;
  ShardId solo_ = kNoShard;  ///< handoff-only epoch runs just this shard
  bool stopping_ = false;
};

}  // namespace uparc::sim
