// The native execution engine: runs a compiled-to-C++ pipeline module
// (src/native/emit.cpp + src/native/jit.cpp) instead of walking the AST.
//
// Two hosts share one loaded Program:
//
//   - native::Runtime couples the module to a sched::EventScheduler exactly
//     like interp::Runtime does — register arrays live in the switch, events
//     flow through the full simulator, control-plane apply points fire at
//     the same boundaries. A drop-in engine swap for Testbed-style setups
//     (src/ctrl/native_bridge.hpp builds the control-plane surface on it).
//
//   - native::Replica is the decoupled fast path: a single-node mirror of
//     the switch + scheduler + PFC timing model with POD packets on one
//     (time, seq) heap and no std::function in the hot loop. It reproduces
//     the simulator's event interleaving exactly (see the seq-order notes in
//     replica_* below), so after a run its register state is byte-identical
//     to an interp::Runtime run of the same schedule — the differential
//     suite (tests/test_native.cpp) and bench_native both pin this.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "native/abi.hpp"
#include "native/emit.hpp"
#include "native/jit.hpp"
#include "sched/scheduler.hpp"

namespace lucid::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace lucid::obs

namespace lucid::native {

/// Name-keyed run statistics; same shape as interp::RunStats so differential
/// tests can compare them directly.
struct RunStats {
  std::map<std::string, std::uint64_t> executions;
  std::map<std::string, std::uint64_t> generated;
  std::uint64_t total_executions = 0;
};

/// A program compiled for native execution: the emitted module source plus
/// the loaded shared object. Immutable after build; share it across every
/// Runtime/Replica of the same program (the JIT caches by source anyway).
class Program {
 public:
  /// Compiles `comp` (Layout stage must have succeeded) to native code.
  /// Returns nullptr and fills `error` when the program is outside the
  /// engine's envelope (infeasible layout, >kMaxArgs event params) or the
  /// module fails to compile/load.
  static std::shared_ptr<const Program> build(ConstCompilationPtr comp,
                                              std::string* error);

  [[nodiscard]] const Compilation& compilation() const { return *comp_; }
  [[nodiscard]] const ir::ProgramIR& ir() const { return comp_->ir(); }
  [[nodiscard]] const Module& module() const { return *module_; }
  [[nodiscard]] const EmittedModule& emitted() const { return emitted_; }

  [[nodiscard]] const ir::EventInfo* find_event(const std::string& name) const;

 private:
  ConstCompilationPtr comp_;
  std::shared_ptr<Module> module_;
  EmittedModule emitted_;
};

/// One batch call in the Module::run_batch signature, e.g. a wrapper around
/// the raw or the instrumented batch loop.
using BatchCall =
    std::function<void(std::int64_t* const*, const PacketIn*, std::int32_t,
                       GenOut*, std::int32_t*)>;

/// Micro-measures `call`'s throughput (packets/sec) for `mod`'s program on a
/// synthetic round-robin schedule over the handler events, pumping batches
/// against a scratch register file for `budget_s` seconds.
[[nodiscard]] double measure_batch_pps(const ir::ProgramIR& ir,
                                       const Module& mod,
                                       const BatchCall& call,
                                       double budget_s);

/// measure_batch_pps on the module's raw (uninstrumented) batch loop. Used
/// by bench_native and bench_e2e's kernel layer.
[[nodiscard]] double measure_raw_batch_pps(const ir::ProgramIR& ir,
                                           const Module& mod,
                                           double budget_s = 0.005);

// ---------------------------------------------------------------------------
// Coupled engine: the interp::Runtime drop-in
// ---------------------------------------------------------------------------

class Runtime {
 public:
  /// Creates the program's register arrays in the scheduler's switch and
  /// installs the module as the handler executor.
  Runtime(std::shared_ptr<const Program> prog, sched::EventScheduler& node);

  [[nodiscard]] const Program& program() const { return *prog_; }

  /// Same contract as interp::Runtime::inject / inject_control: false (and
  /// nothing injected) on unknown event or arity mismatch; args masked to
  /// their declared widths.
  bool inject(const std::string& event, std::vector<std::int64_t> args,
              sim::Time delay_ns = 0, std::int64_t location = -1);
  bool inject_control(const std::string& event,
                      std::vector<std::int64_t> args, sim::Time delay_ns = 0);

  [[nodiscard]] const ir::EventInfo* find_event(
      const std::string& name) const {
    return prog_->find_event(name);
  }
  [[nodiscard]] pisa::RegisterArray* array(const std::string& name) {
    return node_.node().find_array(name);
  }

  [[nodiscard]] const RunStats& stats() const;
  [[nodiscard]] sched::EventScheduler& node() { return node_; }

 private:
  void execute(const pisa::Packet& p);
  bool make_event(const std::string& event, std::vector<std::int64_t>& args,
                  sched::GenEvent* out) const;

  std::shared_ptr<const Program> prog_;
  sched::EventScheduler& node_;
  std::vector<std::int64_t*> array_ptrs_;  // IR declaration order
  std::vector<GenOut> gen_buf_;
  std::vector<char> has_handler_by_id_;
  std::vector<std::uint64_t> exec_count_by_id_;
  std::vector<std::uint64_t> gen_count_by_id_;
  std::uint64_t total_executions_ = 0;
  mutable RunStats stats_;
};

// ---------------------------------------------------------------------------
// Decoupled engine: the single-node replica
// ---------------------------------------------------------------------------

struct ReplicaConfig {
  pisa::SwitchConfig switch_cfg;   // id defaults to 0; set to the node id
  sched::SchedulerConfig sched;
  /// When >= 0, the replica registers per-shard labeled obs instruments
  /// (shard="<id>" on packets/batch-size/queue-depth) — set by ReplicaFleet.
  int shard_id = -1;
};

/// Single-node mirror of {Switch, EventScheduler, PFC stream} timing with
/// the native module as executor. Injections must be scheduled up front (in
/// the same order the reference run registers them), then run_until drives
/// the event loop, draining every runnable same-timestamp pipeline pass into
/// one run_batch call (see Replica::drain_passes).
///
/// Seq-order contract (why state matches the real simulator byte-for-byte):
/// the simulator breaks timestamp ties by insertion order. The replica
/// allocates one (t, seq) key per sim_.at/after call the real stack would
/// make, in the same order — including the two-hop recirculation path (port
/// delivery, then pipeline pass) and the PFC frame closures. The only
/// entries it skips are front-port deliveries, which in a single-node
/// topology are dropped by the network and have no side effects; removing
/// elements from the allocation sequence preserves the relative order of
/// the rest.
class Replica {
 public:
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delayed_enqueues = 0;
    std::uint64_t recirculations = 0;
    std::uint64_t delay_samples = 0;
  };

  explicit Replica(std::shared_ptr<const Program> prog,
                   ReplicaConfig cfg = {});

  /// Registers an external arrival at absolute time `t`. Validates and
  /// width-masks like Runtime::inject; false on unknown event / bad arity.
  bool schedule_inject(sim::Time t, const std::string& event,
                       std::vector<std::int64_t> args, sim::Time delay_ns = 0,
                       std::int64_t location = -1);

  /// Runs every entry due at or before `t`.
  void run_until(sim::Time t);

  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RunStats& run_stats() const;

  /// Post-run register state, IR declaration order (for byte comparison
  /// against the reference engine's pisa::RegisterArray cells).
  [[nodiscard]] const std::vector<std::int64_t>& array_cells(
      std::size_t decl_index) const {
    return cells_[decl_index];
  }
  [[nodiscard]] std::size_t array_count() const { return cells_.size(); }

  /// Control-plane cell access (FleetDataPlane): width-masked writes and
  /// wrapped indexes, exactly like pisa::RegisterArray::set/get. Only legal
  /// while the replica is quiescent (no run_until in flight on it).
  bool control_write(std::size_t decl_index, std::int64_t index,
                     std::int64_t value);
  [[nodiscard]] std::int64_t control_read(std::size_t decl_index,
                                          std::int64_t index) const;

  /// Consumed-prefix compaction threshold for the pending-injection vector
  /// (run_until erases the drained prefix once pending_head_ passes it, so
  /// soak runs that keep scheduling don't grow memory without bound).
  static constexpr std::size_t kPendingCompactThreshold = 4096;
  /// Capacity of the pending-injection vector plus the pipeline-pass FIFO
  /// (regression surface for the compaction: bounded across schedule/drain
  /// cycles, tracking the live backlog rather than total injections).
  [[nodiscard]] std::size_t pending_footprint() const {
    return pending_.capacity() + pass_q_.capacity();
  }

 private:
  struct RPacket {
    std::int32_t event_id = -1;
    std::int32_t nargs = 0;
    std::int64_t args[kMaxArgs] = {};
    std::int64_t location = -1;
    sim::Time created = 0;
    sim::Time due = 0;
    int size_bytes = 64;
    [[nodiscard]] int wire_bytes() const { return size_bytes + 20; }
  };

  enum class Kind : std::uint8_t {
    Inject,         // front-panel arrival -> pipeline pass
    RecircDeliver,  // recirc port delivery -> pipeline pass
    PfcOpen,        // unpause frame delivered -> open + drain
    PfcClose,       // pause frame delivered -> close
    PfcPauseSend,   // end of release window -> send the pause frame
    PfcTick,        // next PFC pair
  };

  /// Heap entries are kept small (24 bytes): packets live in a pooled slab
  /// (`pool_` + free list) and entries carry an index, so the sift moves in
  /// the hot loop shuffle pointers-worth of data instead of whole packets.
  struct Entry {
    sim::Time t = 0;
    std::uint64_t seq = 0;
    Kind kind = Kind::Inject;
    std::int32_t pkt = -1;  // pool_ index; -1 for packet-less entries
  };

  /// A pre-registered injection: (t, seq) assigned at schedule_inject time —
  /// exactly when the reference run registers its closure — but held in a
  /// sorted vector and merged into the event flow lazily, so the heap only
  /// ever holds the handful of in-flight entries.
  struct PendingInject {
    sim::Time t = 0;
    std::uint64_t seq = 0;
    RPacket pkt;
  };
  /// A completed-pipeline-pass record. Every pass is created at now_ +
  /// pipeline_latency with now_ nondecreasing and seq allocated in creation
  /// order, so the records are (t, seq)-sorted by construction — a FIFO with
  /// O(1) pops instead of two heap sifts per packet. The record holds an
  /// *index* into the packet's existing storage (the consumed pending_
  /// prefix, or a pool_ slot kept allocated until the drain) rather than a
  /// copy: both stay put for the entry's whole lifetime — pending_ is only
  /// compacted when no live pass references it, and pool_ slots are
  /// addressed by index so slab growth can't dangle them.
  struct PassEntry {
    sim::Time t = 0;
    std::uint64_t seq = 0;
    std::int32_t idx = -1;   // pool_ slot or pending_ index
    bool from_pool = false;  // false: pending_[idx].pkt
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// Mirror of pisa::Port::send: FIFO serialization + fixed latency.
  struct RPort {
    double bits_per_ns = 100.0;
    sim::Time latency = 0;
    sim::Time next_free = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    sim::Time send(sim::Time now, int wire_bytes) {
      const sim::Time start = std::max(now, next_free);
      const auto bits = static_cast<double>(wire_bytes) * 8.0;
      const auto ser = static_cast<sim::Time>(bits / bits_per_ns);
      next_free = start + std::max<sim::Time>(ser, 1);
      packets += 1;
      bytes += static_cast<std::uint64_t>(wire_bytes);
      return next_free + latency;
    }
  };

  std::int32_t alloc_slot();
  void release_slot(std::int32_t idx);
  void push_idx(sim::Time t, Kind kind, std::int32_t idx);
  void push(sim::Time t, Kind kind);  // packet-less entry
  void push(sim::Time t, Kind kind, const RPacket& pkt);
  void pfc_tick();
  /// Records a completed pipeline pass (FIFO, not heap) by reference to its
  /// storage — a pending_ index or a pool_ slot.
  void pass_push(sim::Time t, std::int32_t idx, bool from_pool);
  void drain_passes();       // fused drain + classify; see run_until
  void flush_exec_batch();   // run batch_in_ through run_batch + dispatch
  void compact_pending();
  // NOTE: `p` must not alias a pool_ slot — alloc_slot may grow the slab.
  void recirculate(const RPacket& p);
  void route_out(const RPacket& p);
  void dispatch_gen(const GenOut& g);
  bool make_packet(const std::string& event, std::vector<std::int64_t>& args,
                   RPacket* out) const;

  std::shared_ptr<const Program> prog_;
  ReplicaConfig cfg_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<RPacket> pool_;         // slab backing Entry::pkt
  std::vector<std::int32_t> free_;    // recycled pool_ slots
  std::vector<PendingInject> pending_;  // sorted by (t, seq)
  std::size_t pending_head_ = 0;
  std::vector<PassEntry> pass_q_;  // sorted by construction
  std::size_t pass_head_ = 0;

  std::vector<std::vector<std::int64_t>> cells_;  // IR declaration order
  std::vector<std::int64_t*> array_ptrs_;
  std::vector<char> has_handler_by_id_;

  // Drain scratch: the executing subset of a drain as ABI PacketIn
  // records, and the module's per-packet outputs. Reused across drains; no
  // per-drain allocation once warm.
  std::vector<PacketIn> batch_in_;
  std::vector<GenOut> batch_out_;
  std::vector<std::int32_t> batch_counts_;
  std::int32_t gen_stride_ = 1;  // GenOut records per packet in batch_out_

  RPort recirc_;
  RPort front_;
  std::vector<RPacket> delay_queue_;  // FIFO (drained front to back)
  std::size_t delay_head_ = 0;
  bool delay_open_ = false;

  Stats stats_;
  std::vector<std::uint64_t> exec_count_by_id_;
  std::vector<std::uint64_t> gen_count_by_id_;
  std::uint64_t total_executions_ = 0;
  /// Executions already flushed to the obs registry (run_until publishes
  /// the delta once per call, keeping the event loop free of atomics).
  std::uint64_t published_executions_ = 0;
  mutable RunStats run_stats_;

  /// Per-shard labeled instruments (shard_id >= 0 only; null otherwise, so
  /// the single-replica hot path pays one predictable branch per drain).
  obs::Counter* shard_packets_ = nullptr;
  obs::Histogram* shard_batch_size_ = nullptr;
  obs::Gauge* shard_queue_depth_ = nullptr;
  std::uint64_t published_shard_executed_ = 0;
};

}  // namespace lucid::native
