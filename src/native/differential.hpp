// Differential harness: runs the same randomized event schedule through the
// reference engine (interp::Runtime on a single-node Testbed) and the native
// engine (native::Replica), then compares final register state byte for byte
// plus every counter both sides expose. Shared by tests/test_native.cpp (the
// correctness gate) and bench/bench_native.cpp (the speedup gate), so the
// number the bench reports is measured under exactly the contract the tests
// pin.
//
// Schedule construction is deterministic (splitmix64 from a caller seed) and
// engine-agnostic: both engines replay the identical injection list in the
// identical registration order, which is what makes the simulator's
// (time, seq) tie-breaking reproducible in the replica (see
// native/engine.hpp).
//
// Events are auto-classified:
//   - *timer* events — the handler generates with a nonzero or variable
//     delay (the self-perpetuating scan/rotate loops every paper app uses
//     for maintenance) — are injected once each: one seed event spawns the
//     whole periodic cascade, and injecting thousands would only multiply
//     delay-queue load without touching new state.
//   - everything else is *traffic*: injected round-robin with randomized
//     arguments and ~1 us spacing, like workload packets arriving at a
//     front-panel port.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "interp/testbed.hpp"
#include "native/engine.hpp"

namespace lucid::native::diff {

struct Injection {
  sim::Time t = 0;
  std::string event;
  std::vector<std::int64_t> args;
};

struct Schedule {
  std::vector<Injection> entries;  // strictly increasing t
  sim::Time horizon = 0;           // run_until target (includes settle)
};

inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// True when the event's handler reaches a generate with a nonzero (or
/// runtime-computed) delay — the timer/maintenance pattern.
inline bool is_timer_event(const ir::ProgramIR& ir, int event_id) {
  for (const auto& hg : ir.handlers) {
    if (hg.event_id != event_id) continue;
    for (const auto& t : hg.tables) {
      if (t.kind != ir::TableKind::Generate) continue;
      if (t.gen.delay.is_var()) return true;
      if (t.gen.delay.is_const() && t.gen.delay.value > 0) return true;
    }
  }
  return false;
}

/// The part make_schedule and make_burst_schedule share: the handled events
/// split into timers and traffic, the argument generator, and the timer
/// seeds (one injection each, 1 us apart). Traffic starts at `t`.
struct ScheduleBuilder {
  std::uint64_t rng;
  std::vector<const ir::EventInfo*> traffic;
  Schedule s;
  sim::Time t = 997;

  ScheduleBuilder(const ir::ProgramIR& ir, std::uint64_t seed)
      : rng(seed * 0x9E3779B97f4A7C15ull + 1) {
    std::vector<const ir::EventInfo*> timers;
    for (const auto& ev : ir.events) {
      if (!ev.has_handler) continue;
      (is_timer_event(ir, ev.event_id) ? timers : traffic).push_back(&ev);
    }
    for (const auto* ev : timers) {
      add(*ev);
      t += 1000;
    }
    t = std::max<sim::Time>(t, 5000);
  }

  /// Appends `ev` at `t` with fresh random args.
  void add(const ir::EventInfo& ev) {
    std::vector<std::int64_t> args;
    args.reserve(ev.params.size());
    for (std::size_t i = 0; i < ev.params.size(); ++i) {
      args.push_back(static_cast<std::int64_t>(splitmix64(rng) % 4096));
    }
    s.entries.push_back(Injection{t, ev.name, std::move(args)});
  }

  /// The k-th traffic event, round-robin.
  [[nodiscard]] const ir::EventInfo& traffic_event(int k) const {
    return *traffic[static_cast<std::size_t>(k) % traffic.size()];
  }

  Schedule finish() {
    s.horizon = t + 300 * sim::kUs;  // let timer cascades and drains settle
    return std::move(s);
  }
};

inline Schedule make_schedule(const ir::ProgramIR& ir, std::uint64_t seed,
                              int traffic_events) {
  ScheduleBuilder b(ir, seed);
  if (!b.traffic.empty()) {
    for (int i = 0; i < traffic_events; ++i) {
      b.add(b.traffic_event(i));
      b.t += 700 + static_cast<sim::Time>(splitmix64(b.rng) % 600);
    }
  }
  return b.finish();
}

/// Burst variant of make_schedule: traffic arrives in same-timestamp bursts
/// of `burst_size` packets (distinct registration seqs, one arrival time),
/// bursts spaced `gap_ns` apart. With the gap wider than the pipeline
/// latency, every burst's pipeline passes finish together and the replica's
/// batched event loop drains whole bursts into single run_batch_raw calls —
/// make_schedule's strictly increasing timestamps would cap every drain at
/// one packet. Timers still seed once each, like make_schedule.
inline Schedule make_burst_schedule(const ir::ProgramIR& ir,
                                    std::uint64_t seed, int bursts,
                                    int burst_size, sim::Time gap_ns = 2000) {
  ScheduleBuilder b(ir, seed);
  if (!b.traffic.empty()) {
    int k = 0;
    for (int burst = 0; burst < bursts; ++burst) {
      for (int i = 0; i < burst_size; ++i, ++k) b.add(b.traffic_event(k));
      b.t += gap_ns;
    }
  }
  return b.finish();
}

/// One engine's observable outcome: wall time of the run (excluding compile
/// and setup), the full register state in IR declaration order, and every
/// counter the engines share.
struct EngineResult {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  std::vector<std::vector<std::int64_t>> arrays;
  RunStats stats;
  std::uint64_t executed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t delayed_enqueues = 0;
  std::uint64_t recirculations = 0;
};

inline EngineResult run_interp(const std::string& source,
                               const std::string& name, const Schedule& s,
                               const interp::TestbedConfig& base = {}) {
  EngineResult r;
  interp::TestbedConfig cfg = base;
  cfg.program_name = name;
  cfg.switch_ids = {1};
  interp::Testbed tb(source, cfg);
  if (!tb.ok()) {
    r.error = "compile failed: " + tb.diagnostics();
    return r;
  }
  interp::Runtime& rt = tb.node(1);
  for (const auto& e : s.entries) {
    tb.sim().after(e.t, [&rt, &e] {
      rt.inject(e.event, e.args);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  tb.sim().run_until(s.horizon);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();

  for (const pisa::RegisterArray& a : rt.registers()) {
    r.arrays.push_back(a.cells());
  }
  r.stats = rt.stats();
  const auto& sched_stats = tb.sched_at(1).stats();
  r.executed = sched_stats.executed;
  r.forwarded = sched_stats.forwarded;
  r.delayed_enqueues = sched_stats.delayed_enqueues;
  r.recirculations = tb.switch_at(1).recirculations();
  r.ok = true;
  return r;
}

inline EngineResult run_native(const std::shared_ptr<const Program>& prog,
                               const Schedule& s) {
  EngineResult r;
  ReplicaConfig cfg;
  cfg.switch_cfg.id = 1;  // mirror run_interp's single node
  Replica rep(prog, cfg);
  for (const auto& e : s.entries) {
    if (!rep.schedule_inject(e.t, e.event, e.args)) {
      r.error = "schedule_inject rejected event " + e.event;
      return r;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  rep.run_until(s.horizon);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();

  for (const pisa::RegisterArray& a : rep.registers()) {
    r.arrays.push_back(a.cells());
  }
  r.stats = rep.run_stats();
  r.executed = rep.stats().executed;
  r.forwarded = rep.stats().forwarded;
  r.delayed_enqueues = rep.stats().delayed_enqueues;
  r.recirculations = rep.stats().recirculations;
  r.ok = true;
  return r;
}

/// Empty string when the two runs are indistinguishable; otherwise the
/// first difference, spelled out.
inline std::string compare(const ir::ProgramIR& ir, const EngineResult& a,
                           const EngineResult& b) {
  if (!a.ok) return "reference run failed: " + a.error;
  if (!b.ok) return "native run failed: " + b.error;
  if (a.arrays.size() != b.arrays.size()) return "array count differs";
  for (std::size_t i = 0; i < a.arrays.size(); ++i) {
    if (a.arrays[i].size() != b.arrays[i].size()) {
      return "array " + ir.arrays[i].name + " size differs";
    }
    for (std::size_t j = 0; j < a.arrays[i].size(); ++j) {
      if (a.arrays[i][j] != b.arrays[i][j]) {
        return "array " + ir.arrays[i].name + "[" + std::to_string(j) +
               "]: interp=" + std::to_string(a.arrays[i][j]) +
               " native=" + std::to_string(b.arrays[i][j]);
      }
    }
  }
  if (a.stats.total_executions != b.stats.total_executions) {
    return "total_executions: interp=" +
           std::to_string(a.stats.total_executions) +
           " native=" + std::to_string(b.stats.total_executions);
  }
  if (a.stats.executions != b.stats.executions) {
    return "per-event execution counts differ";
  }
  if (a.stats.generated != b.stats.generated) {
    return "per-event generate counts differ";
  }
  if (a.executed != b.executed) {
    return "scheduler executed: interp=" + std::to_string(a.executed) +
           " native=" + std::to_string(b.executed);
  }
  if (a.forwarded != b.forwarded) return "forwarded counts differ";
  if (a.delayed_enqueues != b.delayed_enqueues) {
    return "delayed_enqueues differ";
  }
  if (a.recirculations != b.recirculations) {
    return "recirculation counts differ";
  }
  return {};
}

/// The whole pipeline for one program: compile once, run both engines on
/// the same schedule, diff. `detail` is empty on success.
struct DiffOutcome {
  bool ok = false;
  std::string detail;
  EngineResult interp;
  EngineResult native_;
};

inline DiffOutcome run_differential(const std::string& source,
                                    const std::string& name,
                                    std::uint64_t seed, int traffic_events) {
  DiffOutcome out;
  // Compile once (outside both timed regions) to build the schedule and the
  // native program; run_interp recompiles internally, which is fine — the
  // staged driver is deterministic, so both compilations agree on the IR.
  interp::TestbedConfig probe_cfg;
  probe_cfg.program_name = name;
  interp::Testbed probe(source, probe_cfg);
  if (!probe.ok()) {
    out.detail = "compile failed: " + probe.diagnostics();
    return out;
  }
  const Schedule sched =
      make_schedule(probe.compilation().ir(), seed, traffic_events);

  std::string err;
  const auto prog = Program::build(probe.compilation_ptr(), &err);
  if (prog == nullptr) {
    out.detail = "native build failed: " + err;
    return out;
  }

  out.interp = run_interp(source, name, sched);
  out.native_ = run_native(prog, sched);
  out.detail = compare(prog->ir(), out.interp, out.native_);
  out.ok = out.detail.empty();
  return out;
}

}  // namespace lucid::native::diff
