// The runtime control plane (ROADMAP "Runtime control plane with batched
// table updates"; RBFRT in PAPERS.md): batched register/array updates and
// control-event injection decoupled from the packet path.
//
// Architecture:
//
//   - `DataPlane` is the state surface being driven — registers to read and
//     write, Lucid control events to raise. `RegisterDataPlane` implements
//     the register half and the event check once, over pisa::RegisterFile;
//     the interpreter adapter (ctrl/interp_bridge.hpp) and the native
//     replica fleet's (ctrl/native_bridge.hpp) add only event injection.
//   - `ControlPlane` owns an asynchronous update queue. `submit()` is
//     thread-safe and never touches data-plane state itself; queued batches
//     are applied only at *apply points* — event-scheduler boundaries
//     (right after a handler execution completes, plus a periodic control
//     tick so batches drain under zero traffic). In-flight packet
//     processing is therefore never disturbed mid-handler: a handler either
//     sees none of a batch or all of it (per-batch atomicity).
//   - A batch with any invalid op (unknown array/event, arity mismatch) is
//     rejected whole; no partial application.
//   - Each committed batch models the hardware cost of a control-plane
//     update message (`batch_overhead_ns + per_op_ns * ops`) by occupying
//     the switch pipeline (`pisa::Switch::stall_pipeline`), which is what
//     the packet-path-disturbance benchmark measures. `max_ops_per_apply`
//     bounds how much of that cost a single apply point may incur.
//
// Everything except `submit`/`write`/`post_event`/`pending`/`snapshot` must
// run on the simulation thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "obs/metrics.hpp"
#include "pisa/register_array.hpp"
#include "sched/scheduler.hpp"
#include "support/chrono.hpp"

namespace lucid::ctrl {

using Value = std::int64_t;

/// The state surface a control plane drives. Implemented over the
/// interpreter (ctrl/interp_bridge.hpp) and the native replica fleet
/// (ctrl/native_bridge.hpp).
class DataPlane {
 public:
  virtual ~DataPlane() = default;

  [[nodiscard]] virtual bool has_array(const std::string& name) const = 0;
  /// Cell count, or -1 when the array is unknown.
  [[nodiscard]] virtual std::int64_t array_size(
      const std::string& name) const = 0;
  /// Width-masked write (index wraps like hardware SRAM addressing).
  virtual bool write(const std::string& array, std::int64_t index,
                     Value value) = 0;
  [[nodiscard]] virtual Value read(const std::string& array,
                                   std::int64_t index) const = 0;

  [[nodiscard]] virtual bool can_inject(const std::string& event,
                                        std::size_t arity) const = 0;
  /// Raise a Lucid control event from the control plane (enters through
  /// the switch-CPU path, not a front-panel port).
  virtual bool inject_event(const std::string& event,
                            std::vector<Value> args, sim::Time delay_ns) = 0;
};

/// The register half of a DataPlane and its event check, written once for
/// both engines' register files. An array name resolves through the
/// program's `ir.array_index` to the same slot of every file: a write lands
/// in each (the fleet replicates control tables across its shards), a read
/// comes from the first. Cells mask and wrap like pisa::RegisterArray.
class RegisterDataPlane : public DataPlane {
 public:
  [[nodiscard]] bool has_array(const std::string& name) const override {
    return slot(name) >= 0;
  }
  [[nodiscard]] std::int64_t array_size(
      const std::string& name) const override {
    const int s = slot(name);
    return s < 0 ? -1 : first(s).size();
  }
  bool write(const std::string& array, std::int64_t index,
             Value value) override {
    const int s = slot(array);
    if (s < 0) return false;
    for (pisa::RegisterFile* file : files_) {
      (*file)[static_cast<std::size_t>(s)].set(index, value);
    }
    return true;
  }
  [[nodiscard]] Value read(const std::string& array,
                           std::int64_t index) const override {
    const int s = slot(array);
    return s < 0 ? 0 : first(s).get(index);
  }
  /// Whether ir::ProgramIR::admit_event admits `arity` arguments.
  [[nodiscard]] bool can_inject(const std::string& event,
                                std::size_t arity) const override {
    const ir::EventInfo* ev = ir_.find_event(event);
    return ev != nullptr && ev->params.size() == arity;
  }

 protected:
  /// `files` (at least one) hold `ir`'s arrays and outlive the adapter.
  RegisterDataPlane(const ir::ProgramIR& ir,
                    std::vector<pisa::RegisterFile*> files)
      : ir_(ir), files_(std::move(files)) {}

 private:
  /// The declaration index of array `name`, -1 when undeclared.
  [[nodiscard]] int slot(const std::string& name) const {
    const auto it = ir_.array_index.find(name);
    return it == ir_.array_index.end() ? -1 : it->second;
  }
  [[nodiscard]] const pisa::RegisterArray& first(int slot) const {
    return (*files_.front())[static_cast<std::size_t>(slot)];
  }

  const ir::ProgramIR& ir_;
  std::vector<pisa::RegisterFile*> files_;
};

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

struct RegWrite {
  std::string array;
  std::int64_t index = 0;
  Value value = 0;
};

struct RegRead {
  std::string array;
  std::int64_t index = 0;
};

struct EventPost {
  std::string event;
  std::vector<Value> args;
  sim::Time delay_ns = 0;
};

struct BatchResult {
  bool applied = false;
  std::string error;          // set when the batch was rejected
  std::vector<Value> reads;   // parallel to UpdateBatch::reads
  sim::Time submitted_ns = 0; // control-plane clock at submit (see note)
  sim::Time applied_ns = 0;   // sim clock at the apply point
};

/// One atomic unit of control-plane work: all writes land, all reads are
/// served from the same quiescent state, and all events are raised at one
/// apply point — or (on validation failure) nothing happens at all.
struct UpdateBatch {
  std::vector<RegWrite> writes;
  std::vector<RegRead> reads;
  std::vector<EventPost> events;
  /// Invoked on the simulation thread after the batch commits or rejects.
  std::function<void(const BatchResult&)> on_done;

  [[nodiscard]] std::size_t ops() const {
    return writes.size() + reads.size() + events.size();
  }
};

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

struct ControlPlaneConfig {
  /// Drain period under zero traffic (handler executions are the other,
  /// traffic-driven apply points).
  sim::Time tick_ns = 50 * sim::kUs;
  /// Disturbance budget: max ops committed per apply point. An oversized
  /// batch still applies whole (atomicity beats the budget), but nothing
  /// further joins it at that boundary.
  std::size_t max_ops_per_apply = 8192;
  /// Modeled hardware cost of one committed update message: roughly a
  /// pipeline pass, like a recirculation (cf. SwitchConfig) ...
  sim::Time batch_overhead_ns = 600;
  /// ... plus a per-word register write cost. Set both to 0 to disable the
  /// pipeline-occupancy model entirely.
  sim::Time per_op_ns = 4;
};

struct ControlPlaneStats {
  std::uint64_t batches_submitted = 0;
  std::uint64_t batches_applied = 0;
  std::uint64_t batches_rejected = 0;
  std::uint64_t writes_applied = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t events_injected = 0;
  /// Boundaries at which the queue was drained (traffic + ticks + flushes).
  std::uint64_t apply_points = 0;
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;
  /// Total modeled update-path occupancy (sum of per-batch commit costs).
  sim::Time update_path_busy_ns = 0;
  /// Submit→apply latency over committed batches, in control-plane time.
  double apply_latency_mean_ns = 0;
  double apply_latency_p99_ns = 0;
  sim::Time apply_latency_max_ns = 0;
  /// Register installs per wall-clock second since attach/reset_stats —
  /// the implementation's throughput.
  double wall_installs_per_sec = 0;
  /// Register installs per second of modeled update-path occupancy — the
  /// hardware-model throughput (amortizing batch_overhead_ns is exactly
  /// what batching buys here).
  double modeled_installs_per_sec = 0;
};

class ControlPlane {
 public:
  /// Attaches to the scheduler's apply point and starts the control tick.
  /// One ControlPlane per scheduler (a second attach displaces the first).
  ControlPlane(DataPlane& dp, sched::EventScheduler& sched,
               ControlPlaneConfig cfg = {});
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Queue a batch for application at the next apply point. Thread-safe;
  /// callable from any thread (this is the only mutation path a non-sim
  /// thread may use).
  void submit(UpdateBatch batch);

  /// Single-op conveniences (each is its own batch — the unbatched
  /// baseline in bench_control_plane).
  void write(std::string array, std::int64_t index, Value value);
  void post_event(std::string event, std::vector<Value> args,
                  sim::Time delay_ns = 0);

  [[nodiscard]] std::size_t pending() const;

  /// Drains the whole queue at the current boundary, ignoring the per-apply
  /// budget. Simulation thread only (tests/benches settling).
  void flush();

  [[nodiscard]] ControlPlaneStats snapshot() const;
  void reset_stats();

 private:
  struct Pending {
    UpdateBatch batch;
    sim::Time submitted_ns = 0;
  };

  void on_apply_point();
  void drain(std::size_t budget);
  /// Validates and applies one batch; accumulates the modeled commit cost.
  void apply_one(Pending item, sim::Time* commit_cost);
  void arm_tick();
  [[nodiscard]] sim::Simulator& sim() { return sched_.node().sim(); }

  DataPlane& dp_;
  sched::EventScheduler& sched_;
  ControlPlaneConfig cfg_;
  /// Lets pending tick callbacks notice destruction (sim callbacks cannot
  /// be cancelled).
  std::shared_ptr<bool> alive_;
  bool draining_ = false;

  mutable std::mutex mu_;
  std::deque<Pending> queue_;
  /// Sim clock as of the last apply point: the submit-side timestamp.
  /// Cross-thread submitters cannot read the simulator directly, so their
  /// batches are stamped with the last boundary the control plane saw.
  sim::Time boundary_now_ = 0;
  SteadyClock::time_point wall_start_;
  ControlPlaneStats stats_;
  std::vector<sim::Time> latency_samples_;
  // Process-wide instruments (obs registry). The exact samples above stay
  // authoritative for ControlPlaneStats (exact p99/max); the shared
  // histograms give the cross-component view at log2 resolution.
  obs::Histogram* m_apply_latency_ = nullptr;
  obs::Histogram* m_batch_ops_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
};

}  // namespace lucid::ctrl
