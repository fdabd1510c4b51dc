#include "sim/parallel.hpp"

#include <algorithm>
#include <stdexcept>

namespace uparc::sim {

namespace {
constexpr std::size_t kShardHeapReserve = 4096;
}  // namespace

ParallelExecutor::ParallelExecutor(unsigned workers) : workers_(std::max(workers, 1u)) {}

ParallelExecutor::~ParallelExecutor() { stop(); }

ShardId ParallelExecutor::add_shard(Simulation* sim, std::string name) {
  if (running_) throw std::logic_error("ParallelExecutor::add_shard while running");
  if (sim == nullptr) throw std::invalid_argument("ParallelExecutor::add_shard null sim");
  Shard shard;
  shard.sim = sim;
  shard.name = std::move(name);
  declare_mailbox(*sim, shard.name);
  shards_.push_back(std::move(shard));
  return static_cast<ShardId>(shards_.size() - 1);
}

void ParallelExecutor::declare_mailbox(Simulation& sim, const std::string& shard_name) {
  // The executor mailbox is the shard's one sanctioned exit: declare it on
  // the shard's topology as a cross-shard FIFO (and register it as owned
  // state) so the isolation audit sees the parallel data path explicitly.
  Topology::Channel ch;
  ch.fifo = mailbox_name(shard_name);
  ch.has_fifo = true;
  ch.cross_shard = true;
  sim.topology().declare_channel(ch);
  sim.topology().register_state(nullptr, mailbox_name(shard_name), this);
  sim.reserve_events(kShardHeapReserve);
}

void ParallelExecutor::start() {
  if (running_) return;
  stopping_ = false;
  // Latch-reset handoff, coordinator side: renounce every shard now; each
  // worker adopts its pinned shards at its first epoch (or at shutdown, so
  // the counts pair up even if no epoch ever runs).
  for (Shard& s : shards_) {
    s.sim->release_ownership();
    s.adopt = true;
  }
  running_ = true;
  // The coordinator is worker 0, so the pool holds workers 1..N-1.
  for (unsigned w = 1; w < workers_; ++w) {
    pool_.emplace_back(&ParallelExecutor::worker_loop, this, w);
  }
}

void ParallelExecutor::stop() {
  if (!running_) return;
  release_pinned(0);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
  running_ = false;
  // Workers released their shards on the way out; take them back. Pending
  // jobs and undelivered messages die with the pool (the serve front end
  // only stops once its event loop drained, so nothing live is lost).
  for (Shard& s : shards_) {
    s.jobs.clear();
    s.outbox.clear();
    if (!s.detached) s.sim->adopt_ownership();
  }
}

void ParallelExecutor::post(ShardId shard, std::function<void()> job) {
  shards_[shard].jobs.push_back(std::move(job));
}

void ParallelExecutor::send(ShardId from, TimePs t, std::function<void()> deliver) {
  Shard& s = shards_[from];
  s.outbox.push_back(Message{t, s.message_seq++, std::move(deliver)});
}

void ParallelExecutor::run_epoch(const std::vector<TimePs>& targets) {
  if (!running_) throw std::logic_error("ParallelExecutor::run_epoch before start()");
  if (targets.size() != shards_.size()) {
    throw std::invalid_argument("ParallelExecutor::run_epoch: one target per shard");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].target = targets[i];
    stats_.jobs += shards_[i].jobs.size();
  }
  ++stats_.epochs;
  epoch(kNoShard);
}

void ParallelExecutor::acquire(ShardId shard) {
  if (!running_) throw std::logic_error("ParallelExecutor::acquire before start()");
  Shard& s = shards_[shard];
  if (s.detached) return;
  // Solo jobs-only epoch: the pinned worker renounces just this shard.
  s.release = true;
  epoch(shard);
  s.detached = true;
  s.sim->adopt_ownership();
}

void ParallelExecutor::release(ShardId shard, Simulation* sim) {
  if (sim == nullptr) throw std::invalid_argument("ParallelExecutor::release null sim");
  Shard& s = shards_[shard];
  if (sim != s.sim) declare_mailbox(*sim, s.name);  // replacement kernel
  s.sim = sim;
  s.sim->release_ownership();
  s.detached = false;
  s.adopt = true;
  // A replacement kernel starts clean even if the old one wedged.
  s.wedged = false;
  s.error.clear();
}

void ParallelExecutor::epoch(ShardId solo) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    solo_ = solo;
    pending_ = static_cast<unsigned>(pool_.size());
    ++epoch_;
  }
  cv_work_.notify_all();
  run_pinned(0, solo);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
  }
  // Advance failures first, in shard order, so the coordinator can fail
  // the affected work before this epoch's messages land.
  for (ShardId id = 0; id < static_cast<ShardId>(shards_.size()); ++id) {
    Shard& s = shards_[id];
    if (s.error.empty()) continue;
    std::string what = std::move(s.error);
    s.error.clear();
    if (error_handler_) error_handler_(id, what);
  }
  // Merge every shard's outbox into one (time, shard, seq)-ordered stream.
  // The order is a pure function of shard content — worker count and
  // thread interleaving cannot reach it.
  struct Merged {
    TimePs t;
    ShardId shard;
    u64 seq;
    std::function<void()> deliver;
  };
  std::vector<Merged> merged;
  for (ShardId id = 0; id < static_cast<ShardId>(shards_.size()); ++id) {
    for (Message& m : shards_[id].outbox) {
      merged.push_back(Merged{m.t, id, m.seq, std::move(m.deliver)});
    }
    shards_[id].outbox.clear();
  }
  std::sort(merged.begin(), merged.end(), [](const Merged& a, const Merged& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  });
  stats_.messages += merged.size();
  for (Merged& m : merged) {
    if (sink_) sink_(m.t, std::move(m.deliver));
  }
}

void ParallelExecutor::run_shard(Shard& s) {
  if (s.detached) return;
  if (s.adopt) {
    s.sim->adopt_ownership();
    s.adopt = false;
  }
  if (s.release) {
    // Handoff epoch: renounce the latch and touch nothing else.
    s.release = false;
    s.sim->release_ownership();
    return;
  }
  if (s.wedged) {
    s.jobs.clear();
    return;
  }
  try {
    for (std::function<void()>& job : s.jobs) job();
    s.jobs.clear();
    if (s.target > s.sim->now()) s.sim->run_until(s.target);
  } catch (const std::exception& e) {
    // A throwing shard is wedged: park it so a poisoned kernel cannot
    // re-throw every epoch; the coordinator is told once, this epoch.
    s.wedged = true;
    s.error = e.what();
    s.jobs.clear();
  }
}

void ParallelExecutor::run_pinned(unsigned worker_index, ShardId solo) {
  for (ShardId id = worker_index; id < static_cast<ShardId>(shards_.size()); id += workers_) {
    if (solo != kNoShard && id != solo) continue;
    run_shard(shards_[id]);
  }
}

void ParallelExecutor::release_pinned(unsigned worker_index) {
  // Handoff, worker side of shutdown: give every pinned shard back. A
  // pending adopt is completed first so release always runs as the owner
  // and the topology counts stay paired.
  for (ShardId id = worker_index; id < static_cast<ShardId>(shards_.size()); id += workers_) {
    Shard& s = shards_[id];
    if (s.detached) continue;
    if (s.adopt) {
      s.sim->adopt_ownership();
      s.adopt = false;
    }
    s.sim->release_ownership();
  }
}

void ParallelExecutor::worker_loop(unsigned worker_index) {
  u64 seen = 0;
  for (;;) {
    ShardId solo = kNoShard;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stopping_ || epoch_ > seen; });
      if (stopping_) {
        release_pinned(worker_index);
        return;
      }
      seen = epoch_;
      solo = solo_;
    }
    run_pinned(worker_index, solo);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace uparc::sim
