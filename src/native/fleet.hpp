// The multi-core native data path: a fleet of per-core Replica shards.
//
// Each shard is a complete, independent native::Replica — its own register
// slab, scheduler clock, packet pool, and PFC stream. Injections are
// partitioned across shards at schedule_inject time by a *stable* hash of
// the flow identity (destination location when the injection carries one,
// otherwise event id + argument words), so a given flow always lands on the
// same shard and every shard observes a deterministic subsequence of the
// overall schedule.
//
// Correctness model (the per-shard differential-state contract): because
// shards share no mutable state, running shard s inside the fleet is
// *literally* running a single-threaded Replica over s's injection
// subsequence — per-shard register state is byte-identical to that
// reference by construction, and tests/test_native.cpp re-derives the
// subsequences independently and checks exactly that at 1/2/4/8 shards.
// What sharding gives up is cross-flow state mixing: flows hashed to
// different shards update different register slabs, the same trade a
// hardware RSS/multi-pipe deployment makes.
//
// run_until fans the shards out over a persistent support::WorkerPool (the
// calling thread participates), so repeated run-slices cost a wakeup, not a
// thread spawn per slice. Control-plane access (ctrl::FleetDataPlane) is
// only legal between run_until calls, when every worker is quiescent — the
// pool's join provides the happens-before edge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "native/engine.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

namespace lucid::native {

struct FleetConfig {
  /// Shard count; clamped to >= 1. One worker thread per shard.
  int shards = 1;
  /// Per-shard replica configuration (every shard mirrors the same switch
  /// id and scheduler mode).
  ReplicaConfig replica;
  /// Register per-shard labeled obs instruments (shard="<i>" on the
  /// packets/batch-size/queue-depth metrics). Off for reference replicas so
  /// differential runs don't double-count.
  bool label_metrics = true;
};

class ReplicaFleet {
 public:
  ReplicaFleet(std::shared_ptr<const Program> prog, FleetConfig cfg = {})
      : prog_(std::move(prog)),
        cfg_(cfg),
        pool_(cfg.shards < 1 ? 1 : cfg.shards) {
    const int n = cfg_.shards < 1 ? 1 : cfg_.shards;
    cfg_.shards = n;
    shards_.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      ReplicaConfig rc = cfg_.replica;
      rc.shard_id = cfg_.label_metrics ? s : -1;
      shards_.push_back(std::make_unique<Replica>(prog_, rc));
    }
  }

  [[nodiscard]] int shards() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] const Program& program() const { return *prog_; }
  [[nodiscard]] Replica& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Replica& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// The stable routing hash: location-keyed when the injection is
  /// addressed (>= 0), flow-keyed (event id + args) otherwise. Exposed so
  /// tests and benches can re-derive per-shard subsequences independently.
  [[nodiscard]] static std::size_t route(int shards, std::int64_t location,
                                         std::int32_t event_id,
                                         const std::vector<std::int64_t>&
                                             args) {
    std::uint32_t h;
    if (location >= 0) {
      h = support::fnv1a_word(support::fnv1a_init(0x10c), location);
    } else {
      h = support::fnv1a_init(event_id);
      for (const std::int64_t a : args) h = support::fnv1a_word(h, a);
    }
    return static_cast<std::size_t>(h) %
           static_cast<std::size_t>(shards < 1 ? 1 : shards);
  }

  /// The shard an injection would land on (validation-free preview).
  [[nodiscard]] std::size_t route_of(const std::string& event,
                                     const std::vector<std::int64_t>& args,
                                     std::int64_t location = -1) const {
    const ir::EventInfo* ev = prog_->find_event(event);
    return route(shards(), location, ev != nullptr ? ev->event_id : -1,
                 args);
  }

  /// Routes and registers an external arrival; same validation contract as
  /// Replica::schedule_inject (false on unknown event / bad arity, args
  /// width-masked by the shard).
  bool schedule_inject(sim::Time t, const std::string& event,
                       std::vector<std::int64_t> args, sim::Time delay_ns = 0,
                       std::int64_t location = -1) {
    const ir::EventInfo* ev = prog_->find_event(event);
    if (ev == nullptr) return false;
    const std::size_t s = route(shards(), location, ev->event_id, args);
    return shards_[s]->schedule_inject(t, event, std::move(args), delay_ns,
                                       location);
  }

  /// Runs every shard up to `t`, in parallel on the pool. Returns with all
  /// shards quiescent at `t` (the pool join is the synchronization point —
  /// shard state read afterwards is safely published).
  void run_until(sim::Time t) {
    pool_.run(shards_.size(),
              [this, t](std::size_t s) { shards_[s]->run_until(t); });
  }

  /// All shards share one clock discipline: after run_until(t) each sits
  /// exactly at t, so any shard's now() is the fleet's.
  [[nodiscard]] sim::Time now() const { return shards_[0]->now(); }

  /// Per-event execution/generation counts summed across shards.
  [[nodiscard]] RunStats merged_run_stats() const {
    RunStats total;
    for (const auto& sh : shards_) {
      const RunStats& rs = sh->run_stats();
      total.total_executions += rs.total_executions;
      for (const auto& [name, n] : rs.executions) {
        total.executions[name] += n;
      }
      for (const auto& [name, n] : rs.generated) total.generated[name] += n;
    }
    return total;
  }

  /// Scheduler-level counters summed across shards.
  [[nodiscard]] Replica::Stats merged_stats() const {
    Replica::Stats total;
    for (const auto& sh : shards_) {
      const Replica::Stats& st = sh->stats();
      total.executed += st.executed;
      total.forwarded += st.forwarded;
      total.delayed_enqueues += st.delayed_enqueues;
      total.recirculations += st.recirculations;
      total.delay_samples += st.delay_samples;
    }
    return total;
  }

 private:
  std::shared_ptr<const Program> prog_;
  FleetConfig cfg_;
  std::vector<std::unique_ptr<Replica>> shards_;
  WorkerPool pool_;
};

}  // namespace lucid::native
