// bench_e2e — the end-to-end benchmark of the Lucid tool chain.
//
// One process runs one workload on inputs derived from --seed and reports
// what a user pays: set-up from Lucid source text to the first executed
// packet (or to P4 text), the cost of the workload's unit operation,
// throughput, and peak memory. Each layer is timed only around calls into
// its public functions — CompilerDriver::run_until / recompile / emit,
// native::emit_source, native::Module::load, native::Program::build, the
// ReplicaFleet constructor, schedule_inject, run_until,
// native::measure_raw_batch_pps, ControlPlane::submit / flush — so nothing
// under src/ is instrumented for the benchmark, and the same spans feed the
// end-to-end numbers and the per-layer attribution.
//
// Every span is read on two clocks: wall time, and CPU time of the process
// plus its reaped children (the JIT's compiler runs as a child). A workload
// whose work runs on one thread reports CPU time: on a shared virtual
// machine wall time also counts the time the hypervisor gives other guests.
// fleet-churn runs four shard threads, so it reports wall time: CPU time
// summed over threads would hide a loss of parallelism. Both clocks are
// reported as per-layer metrics.
//
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--trace=FILE]
//             [--out=FILE]
//
// The last stdout line is a JSON object with the end-to-end metrics; with
// --trace=FILE the spans are also recorded into obs::Tracer (written to FILE
// as Chrome trace JSON) and the line carries the per-layer metrics instead.
// --out=FILE writes every metric, the layer detail and the self-time table.
// Workloads, metrics and the reason for each are in bench/e2e/README.md. Any
// output that disagrees with its reference exits 1.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/driver.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/native_bridge.hpp"
#include "frontend/progen.hpp"
#include "native/differential.hpp"
#include "native/emit.hpp"
#include "native/engine.hpp"
#include "native/fleet.hpp"
#include "native/jit.hpp"
#include "obs/trace.hpp"
#include "support/chrono.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

namespace {

using namespace lucid;
namespace diff = native::diff;

// ---------------------------------------------------------------------------
// Workload shape
// ---------------------------------------------------------------------------

constexpr std::size_t kMinSetups = 3;  // cold set-ups per run, at least
constexpr double kSetupShare = 0.2;  // of --seconds, for set-ups past 3
constexpr int kBursts = 2000;        // apps-*: bursts per app per rep
constexpr int kBurstSize = 32;
constexpr sim::Time kBurstGap = 2 * sim::kUs;
constexpr sim::Time kAppSlice = 1000 * sim::kUs;
constexpr std::size_t kMinReps = 3;  // apps-*: reps per app, at least
constexpr int kChurnShards = 4;
constexpr int kChurnBursts = 10000;  // fleet-churn: bursts per round
constexpr sim::Time kChurnSlice = 50 * sim::kUs;
constexpr int kChurnWrites = 64;
constexpr int kChurnReads = 8;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMinEdits = 8;
constexpr int kProgenHandlers = 240;  // 512 decls with progen's defaults
constexpr int kProgenStmts = 28;
constexpr int kEmptySlices = 64;      // fleet_slice_us samples per rep/round
constexpr double kKernelBudgetS = 0.02;
constexpr std::size_t kTraceRing = std::size_t{1} << 19;

const sim::Time kPipeLatency = pisa::SwitchConfig{}.pipeline_latency_ns;

const char* const kWorkloads[] = {"apps-burst", "apps-paced", "fleet-churn",
                                  "edit-native", "edit-p4"};

// ---------------------------------------------------------------------------
// Two clocks
// ---------------------------------------------------------------------------

/// CPU time of every thread of the process, plus, with `children`, of every
/// child it has reaped. Reading the children costs one more system call, so
/// only spans that can start a child ask for it.
std::uint64_t cpu_now_ns(bool children) {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  std::uint64_t ns = static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
                     static_cast<std::uint64_t>(ts.tv_nsec);
  if (children) {
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    const auto us = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1000000u +
             static_cast<std::uint64_t>(tv.tv_usec);
    };
    ns += 1000u * (us(ru.ru_utime) + us(ru.ru_stime));
  }
  return ns;
}

/// A duration, or a sample of one, on both clocks.
struct Dur {
  double cpu = 0;   // ms
  double wall = 0;  // ms
  Dur& operator+=(const Dur& o) {
    cpu += o.cpu;
    wall += o.wall;
    return *this;
  }
  friend Dur operator+(Dur a, const Dur& b) { return a += b; }
};

/// Selects one clock of a Dur: &Dur::cpu or &Dur::wall.
using Clock = double Dur::*;

struct Stamp {
  std::uint64_t wall;
  std::uint64_t cpu;
  /// Stamps taken so far, for the cost of the timing itself.
  static inline std::uint64_t taken = 0;
  static Stamp now(bool children = false) {
    ++taken;
    return Stamp{obs::Tracer::now_ns(), cpu_now_ns(children)};
  }
  [[nodiscard]] Dur since(const Stamp& t0) const {
    return Dur{static_cast<double>(cpu - t0.cpu) / 1e6,
               static_cast<double>(wall - t0.wall) / 1e6};
  }
};

// ---------------------------------------------------------------------------
// Layers and the timeline of spans around calls into them
// ---------------------------------------------------------------------------

enum Layer : int {
  kWorkload,  // root: the whole measured part of the run
  kHarness,   // the benchmark's own input generation
  kParse,
  kSema,
  kLower,
  kLayout,
  kRecompile,
  kRelayout,
  kP4Emit,
  kNativeEmit,
  kJit,
  kProgramBuild,
  kFleetBuild,
  kFirstPacket,
  kIngest,
  kLoop,
  kKernel,
  kFleetSlice,
  kCtrl,
  kNumLayers
};

constexpr const char* kLayerName[kNumLayers] = {
    "workload",           "harness",           "frontend.parse",
    "frontend.sema",      "frontend.lower",    "frontend.layout",
    "frontend.recompile", "frontend.relayout", "p4.emit",
    "native.emit",        "native.jit",        "native.program",
    "fleet.build",        "fleet.first_packet", "engine.ingest",
    "engine.loop",        "native.kernel",     "fleet.slice",
    "ctrl",
};

using LayerDur = std::array<Dur, kNumLayers>;

/// Nested spans on the benchmark thread. Every span's self time (duration
/// minus the part its child spans cover) is charged to its layer, so the
/// self times of all layers, the root's included, add up to the root's
/// duration exactly; the root's own self time is the unattributed rest.
/// When obs::Tracer is enabled each span is also recorded there (wall time,
/// with the CPU time as the span's "cpu_us" argument).
///
/// Only the root and the JIT's spans count the CPU time of child processes:
/// Module::load is the one call that runs one (the system compiler).
class Timeline {
 public:
  void open(Layer l) {
    stack_.push_back(Frame{l, Stamp::now(counts_children(l)), {}});
  }

  /// Closes the innermost span; returns its duration.
  Dur close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const Stamp t1 = Stamp::now(counts_children(f.layer));
    const Dur d = t1.since(f.t0);
    Dur& self = self_[static_cast<std::size_t>(f.layer)];
    self.cpu += d.cpu - f.children.cpu;
    self.wall += d.wall - f.children.wall;
    if (!stack_.empty()) stack_.back().children += d;
    obs::Tracer::global().complete(
        "bench_e2e", kLayerName[f.layer], f.t0.wall, t1.wall - f.t0.wall,
        "cpu_us", static_cast<std::int64_t>((t1.cpu - f.t0.cpu) / 1000));
    return d;
  }

  template <typename F>
  Dur time(Layer l, F&& f) {
    open(l);
    f();
    return close();
  }

  [[nodiscard]] const Dur& self(Layer l) const {
    return self_[static_cast<std::size_t>(l)];
  }

 private:
  struct Frame {
    Layer layer;
    Stamp t0;
    Dur children;
  };
  static bool counts_children(Layer l) { return l == kWorkload || l == kJit; }
  std::vector<Frame> stack_;
  LayerDur self_{};
};

// ---------------------------------------------------------------------------
// Small statistics
// ---------------------------------------------------------------------------

constexpr double kNa = std::numeric_limits<double>::quiet_NaN();

/// Linear-interpolated quantile (q in [0, 1]); NaN for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNa;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return v.empty() ? kNa : std::exp(log_sum / static_cast<double>(v.size()));
}

std::vector<double> column(const std::vector<Dur>& v, Clock clk) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Dur& d : v) out.push_back(d.*clk);
  return out;
}

/// A layer's median time over a list of per-unit layer times; NaN when no
/// unit called the layer.
double layer_median(const std::vector<LayerDur>& units, Layer l, Clock clk) {
  std::vector<double> col;
  for (const LayerDur& u : units) {
    col.push_back(u[static_cast<std::size_t>(l)].*clk);
  }
  const double m = median(col);
  return m > 0 ? m : kNa;
}

/// A unit's user-visible time: its layer calls, without harness work.
Dur unit_total(const LayerDur& ms) {
  Dur t;
  for (int l = kParse; l < kNumLayers; ++l) {
    t += ms[static_cast<std::size_t>(l)];
  }
  return t;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0xD1B54A32D192ED03ull);
  return diff::splitmix64(s);
}

/// Where each handler starts, in the order frontend::edit_one_handler
/// counts them.
std::vector<std::size_t> handler_offsets(const std::string& src) {
  std::vector<std::size_t> out;
  for (std::size_t pos = src.find("handle "); pos != std::string::npos;
       pos = src.find("handle ", pos + 7)) {
    out.push_back(pos);
  }
  return out;
}

/// The name of the first parameter of the handler at `offset` ("" if none).
std::string first_param(const std::string& src, std::size_t offset) {
  const std::size_t open = src.find('(', offset);
  if (open == std::string::npos) return {};
  const std::size_t end = std::min(src.find(',', open), src.find(')', open));
  const std::string decl = src.substr(open + 1, end - open - 1);
  const std::size_t last = decl.find_last_not_of(" \t\n");
  if (last == std::string::npos) return {};
  const std::size_t first = decl.find_last_of(" \t\n", last);
  return decl.substr(first + 1, last - first);
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

/// Work done in a timed interval: `count` units (passes, edits) in `time`.
struct Work {
  double count = 0;
  Dur time;
};

/// Everything a workload measures, for the report at the end.
struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// The workload's clock: every time it reports is on it, except the
  /// per-layer metrics named cpu.* and wall.*.
  Clock clk = &Dur::cpu;
  /// Cold set-ups repeat until `setup_deadline`, operations until
  /// `deadline` (the end of the measured part), past their minimum counts.
  SteadyClock::time_point setup_deadline;
  SteadyClock::time_point deadline;
  Timeline tl;

  // Operation accounting: injections, control batches, compiles, emits and
  // JIT loads. Rejected or failed ones count in `failed`.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Outputs that disagree with their reference (any one fails the run).
  std::vector<std::string> mismatches;
  /// Every module a timed JIT load returned; a repeat is a cache hit.
  std::set<const native::Module*> jit_modules;

  // End-to-end samples. An operation group is one app (apps-*) or the whole
  // workload; its quantiles are combined across groups by geomean, as are
  // the median throughputs of its work items.
  std::vector<LayerDur> setups;  // per set-up, summed over its programs
  std::vector<std::vector<Dur>> ops;
  std::vector<std::vector<Work>> work;
  double peak_rss_mb = 0.0;
  Dur measured;  // the root span
  /// The stamps' own cost (stamps taken in the measured part times the
  /// cost of one), as a share of its wall time. Untraced runs pay it too.
  double timing_overhead_pct = 0.0;

  // Layer detail.
  std::vector<LayerDur> edits;  // per edit
  double native_loc = 0, p4_bytes = 0;
  std::array<double, 4> decls_reused{};  // parse/sema/lower/layout, 1st edit
  Dur ingest, loop;
  std::uint64_t injections = 0, passes = 0;
  std::uint64_t unit_injections = 0, unit_passes = 0;  // rep 0 of each program
  double kernel_ns = kNa;  // per packet; apps-*: weighted by passes
  std::vector<double> empty_slice_us;
  double shard_imbalance = 0;  // max shard passes / mean; 0 without traffic
  std::vector<double> ctrl_flush_us, ctrl_wait_us;
  double ctrl_applied = 0, ctrl_rejected = 0;

  /// Alternating traced/untraced units of the traced run, for the tracing
  /// overhead (ratio of medians per group, geomean across groups).
  struct Unit {
    int group;
    bool traced;
    double ms;
  };
  std::vector<Unit> units;

  [[nodiscard]] bool more(std::size_t done, std::size_t min) const {
    return done < min || SteadyClock::now() < deadline;
  }
  [[nodiscard]] bool more_setups() const {
    return setups.size() < kMinSetups || SteadyClock::now() < setup_deadline;
  }
  /// Counts one attempted operation; returns `ok`.
  bool op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  bool mismatch(std::string what) {
    mismatches.push_back(std::move(what));
    return false;
  }
  /// In a traced run, units alternate: even ones traced, odd ones not.
  bool begin_unit(std::size_t index) {
    const bool traced = trace && index % 2 == 0;
    if (trace) set_tracing(traced);
    return traced;
  }
  void end_unit(int group, bool traced, const Dur& d) {
    if (trace) set_tracing(true);
    units.push_back(Unit{group, traced, d.*clk});
  }
  static void set_tracing(bool on) {
    if (on) {
      obs::TracerConfig cfg;
      cfg.ring_capacity = kTraceRing;
      cfg.sample_every = 1;
      obs::Tracer::global().enable(cfg);
    } else {
      obs::Tracer::global().disable();
    }
  }
  /// Ends the measured part: closes the root span, stops tracing, and takes
  /// peak memory before any correctness check allocates.
  void end_measure() {
    measured = tl.close();
    obs::Tracer::global().disable();
    peak_rss_mb = peak_rss_kb() / 1024.0;
    const auto stamps = static_cast<double>(Stamp::taken);
    timing_overhead_pct =
        100.0 * stamps * stamp_cost_ns() / 1e6 / measured.wall;
  }

  /// Wall time of taking one stamp, measured on this thread.
  static double stamp_cost_ns() {
    constexpr int kStamps = 20000;
    const std::uint64_t t0 = obs::Tracer::now_ns();
    for (int i = 0; i < kStamps; ++i) (void)Stamp::now();
    return static_cast<double>(obs::Tracer::now_ns() - t0) / kStamps;
  }

  /// The peak resident set of this process's address space (VmHWM). Not
  /// getrusage's ru_maxrss: that survives execve, so a run started from a
  /// larger launcher would report the launcher's peak.
  static double peak_rss_kb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    double kb = 0;
    while (status >> key) {
      if (key == "VmHWM:" && status >> kb) return kb;
      status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
  }
};

// ---------------------------------------------------------------------------
// Source text -> running program, one span per public call
// ---------------------------------------------------------------------------

struct Built {
  CompilationPtr comp;
  std::shared_ptr<const native::Program> prog;
  std::unique_ptr<native::ReplicaFleet> fleet;
  LayerDur ms{};
  int native_loc = 0;
  std::size_t p4_bytes = 0;
  std::size_t p4_hash = 0;
};

/// Parse..Layout for a cold compile, or recompile + Layout for an edit of
/// `prev`. False (one failed operation) when a stage fails or the layout is
/// infeasible.
bool front_end(Ctx& c, const CompilerDriver& d, const std::string& src,
               const ConstCompilationPtr& prev, Built* b) {
  if (prev == nullptr) {
    b->ms[kParse] = c.tl.time(kParse, [&] {
      b->comp = d.start(src);
      d.run_until(b->comp, Stage::Parse);
    });
    b->ms[kSema] = c.tl.time(kSema, [&] { d.run_until(b->comp, Stage::Sema); });
    b->ms[kLower] =
        c.tl.time(kLower, [&] { d.run_until(b->comp, Stage::Lower); });
    b->ms[kLayout] =
        c.tl.time(kLayout, [&] { d.run_until(b->comp, Stage::Layout); });
  } else {
    b->ms[kRecompile] =
        c.tl.time(kRecompile, [&] { b->comp = d.recompile(prev, src); });
    b->ms[kRelayout] =
        c.tl.time(kRelayout, [&] { d.run_until(b->comp, Stage::Layout); });
  }
  return c.op(b->comp->ok() && b->comp->succeeded(Stage::Layout) &&
              b->comp->pipeline().feasible);
}

/// Layout -> first executed packet: native emit, a cold JIT load,
/// Program::build (which re-emits and must hit the module the JIT just
/// loaded), a fleet of `shards`, and one packet run through it.
bool native_tail(Ctx& c, int shards, Built* b) {
  const Compilation& comp = *b->comp;
  native::EmittedModule em;
  b->ms[kNativeEmit] = c.tl.time(kNativeEmit, [&] {
    em = native::emit_source(comp, comp.options().program_name);
  });
  b->native_loc = em.loc;
  std::string err;
  std::shared_ptr<native::Module> mod;
  b->ms[kJit] =
      c.tl.time(kJit, [&] { mod = native::Module::load(em.text, &err); });
  if (!c.op(mod != nullptr)) return c.mismatch("JIT load failed: " + err);
  if (!c.jit_modules.insert(mod.get()).second) {
    return c.mismatch("JIT served a cached module: the load was not cold");
  }
  b->ms[kProgramBuild] = c.tl.time(kProgramBuild, [&] {
    b->prog = native::Program::build(b->comp, &err);
  });
  if (!c.op(b->prog != nullptr)) {
    return c.mismatch("Program::build failed: " + err);
  }
  if (&b->prog->module() != mod.get()) {
    return c.mismatch("Program::build loaded another module than emit_source");
  }
  native::FleetConfig fc;
  fc.shards = shards;
  b->ms[kFleetBuild] = c.tl.time(kFleetBuild, [&] {
    b->fleet = std::make_unique<native::ReplicaFleet>(b->prog, fc);
  });
  diff::Schedule first;
  c.tl.time(kHarness,
            [&] { first = diff::make_schedule(comp.ir(), c.seed, 1); });
  if (first.entries.empty()) return c.mismatch("program has no handler");
  const diff::Injection& e = first.entries.front();
  bool injected = false;
  b->ms[kFirstPacket] = c.tl.time(kFirstPacket, [&] {
    injected = b->fleet->schedule_inject(e.t, e.event, e.args);
    b->fleet->run_until(e.t + kPipeLatency);
  });
  if (!c.op(injected)) return c.mismatch("first packet rejected");
  if (b->fleet->merged_stats().executed == 0) {
    return c.mismatch("first packet did not execute");
  }
  return true;
}

/// Layout -> P4 text.
bool p4_tail(Ctx& c, const CompilerDriver& d, Built* b) {
  BackendArtifact art;
  b->ms[kP4Emit] = c.tl.time(kP4Emit, [&] { art = d.emit(b->comp, "p4"); });
  if (!c.op(art.ok)) return c.mismatch("P4 emit failed");
  c.tl.time(kHarness, [&] {
    b->p4_bytes = art.text.size();
    b->p4_hash = std::hash<std::string>{}(art.text);
  });
  return true;
}

/// Cold set-ups of `specs` (one set-up builds every program; its times are
/// summed over them). Each set-up uses fresh program names, which the
/// emitted module text carries, so the JIT cannot hit its module cache.
/// Leaves the last set-up's builds in `last`, their fleets (and the fleets'
/// worker threads) released.
bool cold_setups(Ctx& c, const std::vector<const apps::AppSpec*>& specs,
                 int shards, std::vector<Built>* last) {
  for (std::size_t k = 0; c.more_setups(); ++k) {
    LayerDur sum{};
    last->clear();
    double loc = 0;
    for (const apps::AppSpec* spec : specs) {
      DriverOptions o;
      o.program_name = spec->key + "_setup" + std::to_string(k);
      const CompilerDriver d(o);
      Built b;
      if (!front_end(c, d, spec->source, nullptr, &b)) {
        return c.mismatch(spec->key + " failed to compile");
      }
      if (!native_tail(c, shards, &b)) return false;
      for (int l = 0; l < kNumLayers; ++l) {
        sum[static_cast<std::size_t>(l)] += b.ms[static_cast<std::size_t>(l)];
      }
      loc += b.native_loc;
      b.fleet.reset();
      last->push_back(std::move(b));
    }
    c.setups.push_back(sum);
    c.native_loc = loc;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

/// The control-plane side of a fleet-churn round.
struct Churn {
  ctrl::ControlPlane* plane = nullptr;
  const std::vector<ctrl::UpdateBatch>* batches = nullptr;
  /// Round 0 records what every batch read, for the reference check.
  std::vector<std::vector<ctrl::Value>>* reads = nullptr;
};

struct Served {
  std::uint64_t injections = 0;
  std::uint64_t passes = 0;
  Dur time;  // ingest + run_until
};

/// Streams `s` into `fleet` in virtual-time slices: each slice ingests the
/// arrivals due by its end and runs the fleet up to it. Without churn the
/// operation is the slice (ingest + run, into `ops`), except the last one,
/// which holds only the tail of the arrivals and the settle time; with churn
/// it is the slice's control batch, submitted before the run and applied by
/// the flush after it (submit -> on_done).
Served serve(Ctx& c, native::ReplicaFleet& fleet, const diff::Schedule& s,
             sim::Time slice, Churn* churn, std::vector<Dur>* ops) {
  Served out;
  std::size_t next = 0;
  std::size_t k = 0;
  for (sim::Time end = slice;; end += slice, ++k) {
    std::uint64_t rejected = 0;
    std::uint64_t injected = 0;
    const Dur ingest = c.tl.time(kIngest, [&] {
      for (; next < s.entries.size() && s.entries[next].t <= end; ++next) {
        const diff::Injection& e = s.entries[next];
        ++injected;
        if (!fleet.schedule_inject(e.t, e.event, e.args)) ++rejected;
      }
    });
    c.attempted += injected;
    c.failed += rejected;
    out.injections += injected;
    Dur loop;
    if (churn == nullptr) {
      loop = c.tl.time(kLoop, [&] { fleet.run_until(end); });
      if (next < s.entries.size()) ops->push_back(ingest + loop);
    } else {
      ctrl::UpdateBatch batch;
      Stamp done{};
      bool applied = false;
      c.tl.time(kHarness, [&] {
        batch = (*churn->batches)[k % churn->batches->size()];
        batch.on_done = [&done, &applied, churn](const ctrl::BatchResult& r) {
          done = Stamp::now();
          applied = r.applied;
          if (churn->reads != nullptr) churn->reads->push_back(r.reads);
        };
      });
      const Stamp submitted = Stamp::now();
      c.tl.time(kCtrl, [&] { churn->plane->submit(std::move(batch)); });
      loop = c.tl.time(kLoop, [&] { fleet.run_until(end); });
      const Stamp flushing = Stamp::now();
      const Dur flush = c.tl.time(kCtrl, [&] { churn->plane->flush(); });
      if (c.op(applied)) {
        ops->push_back(done.since(submitted));
        c.ctrl_wait_us.push_back(flushing.since(submitted).*c.clk * 1e3);
        c.ctrl_flush_us.push_back(flush.*c.clk * 1e3);
      }
    }
    out.time += ingest + loop;
    c.ingest += ingest;
    c.loop += loop;
    if (next == s.entries.size() && end >= s.horizon) break;
  }
  out.passes = fleet.merged_stats().executed;
  c.injections += out.injections;
  c.passes += out.passes;
  return out;
}

/// Fan-out cost of a run_until with nothing due.
void sample_empty_slices(Ctx& c, native::ReplicaFleet& fleet) {
  for (int i = 0; i < kEmptySlices; ++i) {
    const sim::Time t = fleet.now();
    c.empty_slice_us.push_back(
        c.tl.time(kFleetSlice, [&] { fleet.run_until(t); }).*c.clk * 1e3);
  }
}

/// Raw run_batch kernel cost of a loaded program, ns per packet.
double measure_kernel(Ctx& c, const native::Program& prog) {
  double pps = 0;
  c.tl.time(kKernel, [&] {
    pps = native::measure_raw_batch_pps(prog.ir(), prog.module(),
                                        kKernelBudgetS);
  });
  return pps > 0 ? 1e9 / pps : kNa;
}

using ShardState = std::vector<std::vector<std::int64_t>>;

ShardState shard_state(const native::Replica& r) {
  ShardState out;
  for (std::size_t a = 0; a < r.array_count(); ++a) {
    out.push_back(r.array_cells(a));
  }
  return out;
}

// ---------------------------------------------------------------------------
// apps-burst / apps-paced
// ---------------------------------------------------------------------------

diff::Schedule app_schedule(const ir::ProgramIR& ir, std::uint64_t seed,
                            bool burst, int bursts) {
  return burst ? diff::make_burst_schedule(ir, seed, bursts, kBurstSize,
                                           kBurstGap)
               : diff::make_schedule(ir, seed, bursts * kBurstSize);
}

bool run_apps(Ctx& c, bool burst) {
  std::vector<const apps::AppSpec*> specs;
  for (const auto& a : apps::all_apps()) specs.push_back(&a);
  std::vector<Built> built;
  if (!cold_setups(c, specs, 1, &built)) return false;

  struct App {
    diff::Schedule sched;
    ShardState state0;  // after rep 0
    std::uint64_t passes0 = 0;
  };
  std::vector<App> apps(specs.size());
  c.tl.time(kHarness, [&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      apps[i].sched = app_schedule(built[i].prog->ir(), derive_seed(c.seed, i),
                                   burst, kBursts);
    }
  });
  c.ops.resize(specs.size());
  c.work.resize(specs.size());
  // Rounds of one rep per app: every app's samples span the whole measured
  // part, so a slow spell of the host shorter than the run weighs on every
  // app alike instead of on the few that ran during it.
  for (std::size_t r = 0; c.more(r, kMinReps); ++r) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      App& app = apps[i];
      const bool traced = c.begin_unit(r);
      std::unique_ptr<native::ReplicaFleet> fleet;
      c.tl.time(kFleetBuild, [&] {
        fleet = std::make_unique<native::ReplicaFleet>(built[i].prog);
      });
      const Served s =
          serve(c, *fleet, app.sched, kAppSlice, nullptr, &c.ops[i]);
      sample_empty_slices(c, *fleet);
      c.end_unit(static_cast<int>(i), traced, s.time);
      c.work[i].push_back(Work{static_cast<double>(s.passes), s.time});
      c.tl.time(kHarness, [&] {
        if (r == 0) {
          app.state0 = shard_state(fleet->shard(0));
          app.passes0 = s.passes;
          c.unit_passes += s.passes;
          c.unit_injections += s.injections;
        } else if (shard_state(fleet->shard(0)) != app.state0 ||
                   s.passes != app.passes0) {
          c.mismatch(specs[i]->key + ": rep " + std::to_string(r) +
                     " ended in another state than rep 0");
        }
      });
    }
  }
  double kernel_weighted = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    kernel_weighted += measure_kernel(c, *built[i].prog) *
                       static_cast<double>(apps[i].passes0);
  }
  c.kernel_ns = kernel_weighted / static_cast<double>(c.unit_passes);
  c.shard_imbalance = 1.0;
  c.end_measure();

  // Reference: the interpreter on the same schedule.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ir::ProgramIR& ir = built[i].prog->ir();
    const diff::EngineResult ref =
        diff::run_interp(specs[i]->source, specs[i]->key, apps[i].sched);
    const diff::EngineResult nat =
        diff::run_native(built[i].prog, apps[i].sched);
    const std::string d = diff::compare(ir, ref, nat);
    if (!d.empty()) c.mismatch(specs[i]->key + " vs interpreter: " + d);
  }
  return true;
}

// ---------------------------------------------------------------------------
// fleet-churn
// ---------------------------------------------------------------------------

/// One control batch per slice: kChurnWrites writes and kChurnReads reads
/// at seeded cells of seeded arrays.
std::vector<ctrl::UpdateBatch> churn_batches(const ir::ProgramIR& ir,
                                             std::uint64_t seed,
                                             std::size_t count) {
  std::uint64_t rng = seed;
  std::vector<ctrl::UpdateBatch> out(count);
  for (ctrl::UpdateBatch& b : out) {
    auto pick = [&]() -> const ir::ArrayInfo& {
      return ir.arrays[diff::splitmix64(rng) % ir.arrays.size()];
    };
    for (int w = 0; w < kChurnWrites; ++w) {
      const ir::ArrayInfo& a = pick();
      const auto index = static_cast<std::int64_t>(
          diff::splitmix64(rng) % static_cast<std::uint64_t>(a.size));
      const auto value =
          static_cast<ctrl::Value>(diff::splitmix64(rng) % 4096);
      b.writes.push_back(ctrl::RegWrite{a.name, index, value});
    }
    for (int r = 0; r < kChurnReads; ++r) {
      const ir::ArrayInfo& a = pick();
      const auto index = static_cast<std::int64_t>(
          diff::splitmix64(rng) % static_cast<std::uint64_t>(a.size));
      b.reads.push_back(ctrl::RegRead{a.name, index});
    }
  }
  return out;
}

/// What round 0 left in each shard, for the reference check.
struct FleetState {
  std::vector<ShardState> cells;
  std::vector<std::uint64_t> executed;
};

/// Per-shard reference: a plain Replica replays the shard's route
/// subsequence slice by slice, with the same control writes applied at the
/// same slice boundaries; its state must equal the fleet shard's, and shard
/// 0's cells must give every read the fleet's batches returned.
std::string check_churn(const std::shared_ptr<const native::Program>& prog,
                        const diff::Schedule& s,
                        const std::vector<ctrl::UpdateBatch>& batches,
                        const FleetState& fleet,
                        const std::vector<std::vector<ctrl::Value>>& reads) {
  const ir::ProgramIR& ir = prog->ir();
  const int shards = static_cast<int>(fleet.cells.size());
  for (int sh = 0; sh < shards; ++sh) {
    native::Replica ref(prog, native::ReplicaConfig{});
    std::size_t next = 0;
    std::size_t k = 0;
    for (sim::Time end = kChurnSlice;; end += kChurnSlice, ++k) {
      for (; next < s.entries.size() && s.entries[next].t <= end; ++next) {
        const diff::Injection& e = s.entries[next];
        const ir::EventInfo* ev = prog->find_event(e.event);
        if (native::ReplicaFleet::route(shards, -1, ev->event_id, e.args) !=
            static_cast<std::size_t>(sh)) {
          continue;
        }
        if (!ref.schedule_inject(e.t, e.event, e.args)) {
          return "reference rejected " + e.event;
        }
      }
      ref.run_until(end);
      const ctrl::UpdateBatch& b = batches[k % batches.size()];
      for (const ctrl::RegWrite& w : b.writes) {
        ref.control_write(
            static_cast<std::size_t>(ir.array_index.at(w.array)), w.index,
            w.value);
      }
      if (sh == 0) {
        if (k >= reads.size()) return "fewer applied batches than slices";
        for (std::size_t j = 0; j < b.reads.size(); ++j) {
          const ctrl::Value want = ref.control_read(
              static_cast<std::size_t>(ir.array_index.at(b.reads[j].array)),
              b.reads[j].index);
          if (reads[k].size() != b.reads.size() || reads[k][j] != want) {
            return "batch " + std::to_string(k) + " read " +
                   std::to_string(j) + " differs from the reference";
          }
        }
      }
      if (next == s.entries.size() && end >= s.horizon) break;
    }
    const auto i = static_cast<std::size_t>(sh);
    if (shard_state(ref) != fleet.cells[i]) {
      return "shard " + std::to_string(sh) + " state differs from reference";
    }
    if (ref.stats().executed != fleet.executed[i]) {
      return "shard " + std::to_string(sh) + " executed count differs";
    }
  }
  return {};
}

bool run_churn(Ctx& c) {
  c.clk = &Dur::wall;  // the shards run on several threads
  std::vector<Built> built;
  if (!cold_setups(c, {&apps::app("SFW")}, kChurnShards, &built)) {
    return false;
  }
  const std::shared_ptr<const native::Program> prog = built.back().prog;
  diff::Schedule sched;
  std::vector<ctrl::UpdateBatch> batches;
  c.tl.time(kHarness, [&] {
    sched = diff::make_burst_schedule(prog->ir(), derive_seed(c.seed, 0),
                                      kChurnBursts, kBurstSize, kBurstGap);
    const auto slices =
        static_cast<std::size_t>(sched.horizon / kChurnSlice) + 2;
    batches = churn_batches(prog->ir(), derive_seed(c.seed, 1), slices);
  });

  FleetState state0;
  std::vector<std::vector<ctrl::Value>> reads0;
  c.ops.resize(1);
  c.work.resize(1);
  for (std::size_t r = 0; c.more(r, kMinRounds); ++r) {
    const bool traced = c.begin_unit(r);
    native::FleetConfig fc;
    fc.shards = kChurnShards;
    std::unique_ptr<native::ReplicaFleet> fleet;
    c.tl.time(kFleetBuild, [&] {
      fleet = std::make_unique<native::ReplicaFleet>(prog, fc);
    });
    // The control point's own scheduler: batches apply on this thread at
    // the flush after each run slice, while no shard is running.
    sim::Simulator side_sim;
    pisa::SwitchConfig side_cfg;
    side_cfg.id = 99;
    std::unique_ptr<pisa::Switch> side_sw;
    std::unique_ptr<sched::EventScheduler> side_sched;
    std::unique_ptr<ctrl::FleetDataPlane> dp;
    std::unique_ptr<ctrl::ControlPlane> plane;
    c.tl.time(kCtrl, [&] {
      side_sw = std::make_unique<pisa::Switch>(side_sim, side_cfg);
      side_sched = std::make_unique<sched::EventScheduler>(
          *side_sw, sched::SchedulerConfig{});
      dp = std::make_unique<ctrl::FleetDataPlane>(*fleet);
      plane = std::make_unique<ctrl::ControlPlane>(*dp, *side_sched);
    });
    Churn churn;
    churn.plane = plane.get();
    churn.batches = &batches;
    churn.reads = r == 0 ? &reads0 : nullptr;
    const Served s = serve(c, *fleet, sched, kChurnSlice, &churn, &c.ops[0]);
    sample_empty_slices(c, *fleet);
    c.end_unit(0, traced, s.time);
    c.work[0].push_back(Work{static_cast<double>(s.passes), s.time});
    if (r == 0) {
      c.tl.time(kHarness, [&] {
        const ctrl::ControlPlaneStats st = plane->snapshot();
        c.ctrl_applied = static_cast<double>(st.batches_applied);
        c.ctrl_rejected = static_cast<double>(st.batches_rejected);
        c.unit_passes = s.passes;
        c.unit_injections = s.injections;
        std::uint64_t max_shard = 0;
        for (int sh = 0; sh < fleet->shards(); ++sh) {
          const native::Replica& shard =
              fleet->shard(static_cast<std::size_t>(sh));
          state0.cells.push_back(shard_state(shard));
          state0.executed.push_back(shard.stats().executed);
          max_shard = std::max(max_shard, shard.stats().executed);
        }
        c.shard_imbalance = static_cast<double>(max_shard) /
                            (static_cast<double>(s.passes) / fleet->shards());
      });
    }
  }
  c.kernel_ns = measure_kernel(c, *prog);
  c.end_measure();

  const std::string d = check_churn(prog, sched, batches, state0, reads0);
  if (!d.empty()) c.mismatch("fleet-churn: " + d);
  return true;
}

// ---------------------------------------------------------------------------
// edit-native / edit-p4
// ---------------------------------------------------------------------------

/// Records a finished edit as one operation. The reuse counts come from the
/// first edit, so they repeat exactly for a seed however many edits fit.
void end_edit(Ctx& c, const Built& b) {
  const Dur t = unit_total(b.ms);
  c.edits.push_back(b.ms);
  c.ops[0].push_back(t);
  c.work[0].front().count += 1;
  c.work[0].front().time += t;
  if (c.edits.size() > 1) return;
  const Stage stages[] = {Stage::Parse, Stage::Sema, Stage::Lower,
                          Stage::Layout};
  for (std::size_t i = 0; i < 4; ++i) {
    c.decls_reused[i] =
        static_cast<double>(b.comp->record(stages[i]).decls_reused);
  }
}

bool run_edit_native(Ctx& c) {
  const apps::AppSpec& spec = apps::app("SFW");
  std::vector<Built> built;
  if (!cold_setups(c, {&spec}, 1, &built)) return false;
  const ConstCompilationPtr base = built.back().comp;
  const CompilerDriver d(base->options());
  const std::vector<std::size_t> handlers = handler_offsets(spec.source);
  // Edit i adds, to handler `which`, a filter on the handler's first
  // parameter with a constant distinct per edit: the emitted module is new,
  // so its JIT load is cold (an unused local would be optimized away and hit
  // the module cache). The constant is above every generated argument and
  // array index, so the edited program behaves like the original.
  auto edited = [&](std::size_t i, std::size_t which) {
    const std::string stmt = " if (" +
                             first_param(spec.source, handlers[which]) +
                             " == " + std::to_string(100000 + i) +
                             ") { return; } ";
    return frontend::edit_one_handler(spec.source, static_cast<int>(which),
                                      stmt);
  };

  struct Edit {
    std::size_t i;
    std::size_t which;
    std::size_t pipeline_hash;
  };
  std::vector<Edit> done;
  std::uint64_t rng = derive_seed(c.seed, 2);
  c.ops.resize(1);
  c.work.assign(1, {Work{}});
  for (std::size_t i = 0; c.more(i, kMinEdits); ++i) {
    const bool traced = c.begin_unit(i);
    std::size_t which = 0;
    std::string src;
    c.tl.time(kHarness, [&] {
      which = diff::splitmix64(rng) % handlers.size();
      src = edited(i, which);
    });
    Built b;
    const bool ok = front_end(c, d, src, base, &b);
    if (ok && !native_tail(c, 1, &b)) return false;
    c.end_unit(0, traced, unit_total(b.ms));
    if (!ok) continue;
    end_edit(c, b);
    c.tl.time(kHarness, [&] {
      done.push_back(Edit{
          i, which, std::hash<std::string>{}(b.comp->pipeline().str())});
    });
  }
  c.kernel_ns = measure_kernel(c, *built.back().prog);
  c.end_measure();

  for (const Edit& e : done) {
    const CompilationPtr cold = d.run(edited(e.i, e.which), Stage::Layout);
    if (!cold->ok() ||
        std::hash<std::string>{}(cold->pipeline().str()) != e.pipeline_hash) {
      c.mismatch("edit " + std::to_string(e.i) +
                 ": incremental Layout differs from a cold compile");
    }
  }
  return true;
}

bool run_edit_p4(Ctx& c) {
  frontend::ProgenConfig pc;
  pc.handlers = kProgenHandlers;
  pc.stmts_per_handler = kProgenStmts;
  std::string source;
  c.tl.time(kHarness, [&] { source = frontend::generate_program(pc); });
  DriverOptions o;
  o.program_name = "progen";
  const CompilerDriver d(o);

  CompilationPtr base;
  while (c.more_setups()) {
    Built b;
    if (!front_end(c, d, source, nullptr, &b)) {
      return c.mismatch("generated program failed to compile");
    }
    if (!p4_tail(c, d, &b)) return false;
    c.setups.push_back(b.ms);
    c.p4_bytes = static_cast<double>(b.p4_bytes);
    base = b.comp;
  }

  auto edited = [&](int which) {
    return frontend::edit_one_handler(source, which, " int __edit = 1; ");
  };
  struct Edit {
    int which;
    std::size_t bytes;
    std::size_t hash;
  };
  std::vector<Edit> done;
  std::uint64_t rng = derive_seed(c.seed, 3);
  c.ops.resize(1);
  c.work.assign(1, {Work{}});
  for (std::size_t i = 0; c.more(i, kMinEdits); ++i) {
    const bool traced = c.begin_unit(i);
    int which = 0;
    std::string src;
    c.tl.time(kHarness, [&] {
      which = static_cast<int>(diff::splitmix64(rng) % kProgenHandlers);
      src = edited(which);
    });
    Built b;
    const bool ok = front_end(c, d, src, base, &b) && p4_tail(c, d, &b);
    c.end_unit(0, traced, unit_total(b.ms));
    if (!ok) continue;
    end_edit(c, b);
    done.push_back(Edit{which, b.p4_bytes, b.p4_hash});
  }
  c.end_measure();

  // Reference: a cold compile of every edited source, on every core (the
  // calling thread is one of the pool's workers).
  std::vector<std::string> bad(done.size());
  WorkerPool pool(static_cast<int>(std::thread::hardware_concurrency()));
  pool.run(done.size(), [&](std::size_t i) {
    const CompilationPtr cold = d.run(edited(done[i].which), Stage::Layout);
    const BackendArtifact art = d.emit(cold, "p4");
    if (!art.ok || art.text.size() != done[i].bytes ||
        std::hash<std::string>{}(art.text) != done[i].hash) {
      bad[i] = "edit " + std::to_string(i) +
               ": P4 differs from a cold compile";
    }
  });
  for (std::string& b : bad) {
    if (!b.empty()) c.mismatch(std::move(b));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};
using Metrics = std::vector<Metric>;

/// The workload's timings on one clock.
struct Timings {
  double setup_ms;  // median set-up: source to first packet or P4 text
  double op_p50_ms;
  double op_p90_ms;
  double throughput;  // work items per second
};

Timings timings(const Ctx& c, Clock clk) {
  std::vector<double> setup, p50, p90, rate;
  for (const LayerDur& s : c.setups) setup.push_back(unit_total(s).*clk);
  for (const std::vector<Dur>& g : c.ops) {
    p50.push_back(quantile(column(g, clk), 0.5));
    p90.push_back(quantile(column(g, clk), 0.9));
  }
  for (const std::vector<Work>& g : c.work) {
    std::vector<double> r;
    for (const Work& w : g) r.push_back(w.count / (w.time.*clk / 1e3));
    rate.push_back(median(r));
  }
  return {median(setup), geomean(p50), geomean(p90), geomean(rate)};
}

/// BENCHMARK.json's end_to_end metrics, on the workload's clock.
Metrics end_to_end(const Ctx& c) {
  const Timings t = timings(c, c.clk);
  return {
      {"setup_s", "s", t.setup_ms / 1e3},
      {"op_p50_ms", "ms", t.op_p50_ms},
      {"throughput", "1/s", t.throughput},
      {"peak_rss_mb", "MB", c.peak_rss_mb},
  };
}

double trace_overhead_pct(const Ctx& c) {
  std::vector<std::vector<double>> on, off;
  for (const Ctx::Unit& u : c.units) {
    const auto g = static_cast<std::size_t>(u.group);
    on.resize(std::max(on.size(), g + 1));
    off.resize(on.size());
    (u.traced ? on : off)[g].push_back(u.ms);
  }
  std::vector<double> ratios;
  for (std::size_t g = 0; g < on.size(); ++g) {
    if (!on[g].empty() && !off[g].empty()) {
      ratios.push_back(median(on[g]) / median(off[g]));
    }
  }
  return 100.0 * (geomean(ratios) - 1.0);
}

/// BENCHMARK.json's per_layer metrics: each is defined on every workload.
/// Times are on the workload's clock unless named cpu.* or wall.*; a layer
/// the workload does not call has share 0.
Metrics per_layer(const Ctx& c) {
  const Timings own = timings(c, c.clk);
  const Timings cpu = timings(c, &Dur::cpu);
  const Timings wall = timings(c, &Dur::wall);
  std::vector<double> jit;
  for (const LayerDur& s : c.setups) jit.push_back(s[kJit].*c.clk);
  const double root = c.measured.*c.clk;
  const double pass_per_inj =
      c.unit_injections > 0 ? static_cast<double>(c.unit_passes) /
                                  static_cast<double>(c.unit_injections)
                            : 0.0;
  Metrics m = {
      {"parse_ms", "ms", layer_median(c.setups, kParse, c.clk)},
      {"sema_ms", "ms", layer_median(c.setups, kSema, c.clk)},
      {"lower_ms", "ms", layer_median(c.setups, kLower, c.clk)},
      {"layout_ms", "ms", layer_median(c.setups, kLayout, c.clk)},
      {"op_p90_ms", "ms", own.op_p90_ms},
      {"cpu.setup_s", "s", cpu.setup_ms / 1e3},
      {"cpu.op_p50_ms", "ms", cpu.op_p50_ms},
      {"cpu.throughput", "1/s", cpu.throughput},
      {"wall.setup_s", "s", wall.setup_ms / 1e3},
      {"wall.op_p50_ms", "ms", wall.op_p50_ms},
      {"wall.throughput", "1/s", wall.throughput},
      {"cpu_ms", "ms", c.measured.cpu},
      {"wall_ms", "ms", c.measured.wall},
      {"unattributed_ms", "ms", c.tl.self(kWorkload).*c.clk},
      {"trace_overhead_pct", "%", trace_overhead_pct(c)},
      {"timing_overhead_pct", "%", c.timing_overhead_pct},
      {"jit_share", "fraction", median(jit) / own.setup_ms},
      {"decls_reused_parse", "count", c.decls_reused[0]},
      {"decls_reused_sema", "count", c.decls_reused[1]},
      {"decls_reused_lower", "count", c.decls_reused[2]},
      {"decls_reused_layout", "count", c.decls_reused[3]},
      {"p4_bytes", "bytes", c.p4_bytes},
      {"native_loc", "lines", c.native_loc},
      {"executed_passes", "count", static_cast<double>(c.unit_passes)},
      {"passes_per_injection", "ratio", pass_per_inj},
      {"shard_imbalance", "ratio", c.shard_imbalance},
      {"ctrl_batches_applied", "count", c.ctrl_applied},
      {"ctrl_batches_rejected", "count", c.ctrl_rejected},
  };
  for (int l = kHarness; l < kNumLayers; ++l) {
    m.push_back({std::string("share.") + kLayerName[l], "fraction",
                 c.tl.self(static_cast<Layer>(l)).*c.clk / root});
  }
  return m;
}

/// Per-operation layer costs, defined only where the workload calls the
/// layer (NaN elsewhere): printed and written to --out, not to the result
/// line.
Metrics layer_detail(const Ctx& c) {
  auto per = [](double num, double den) { return den > 0 ? num / den : kNa; };
  // A layer's time per unit of the workload's operation: per edit where
  // the edits call the layer, else per set-up.
  auto per_unit = [&](Layer l) {
    const double e = layer_median(c.edits, l, c.clk);
    return std::isnan(e) ? layer_median(c.setups, l, c.clk) : e;
  };
  const double loop_ns =
      per(c.loop.*c.clk * 1e6, static_cast<double>(c.passes));
  return {
      {"recompile_ms", "ms", layer_median(c.edits, kRecompile, c.clk)},
      {"relayout_ms", "ms", layer_median(c.edits, kRelayout, c.clk)},
      {"p4_emit_ms", "ms", per_unit(kP4Emit)},
      {"native_emit_ms", "ms", per_unit(kNativeEmit)},
      {"jit_ms", "ms", per_unit(kJit)},
      {"program_build_ms", "ms", per_unit(kProgramBuild)},
      {"fleet_build_ms", "ms", per_unit(kFleetBuild)},
      {"first_packet_ms", "ms", per_unit(kFirstPacket)},
      {"ingest_ns_per_pkt", "ns",
       per(c.ingest.*c.clk * 1e6, static_cast<double>(c.injections))},
      {"loop_ns_per_pass", "ns", loop_ns},
      {"loop_overhead_ns_per_pass", "ns", loop_ns - c.kernel_ns},
      {"kernel_ns_per_pkt", "ns", c.kernel_ns},
      {"fleet_slice_us", "us", median(c.empty_slice_us)},
      {"ctrl_flush_us", "us", median(c.ctrl_flush_us)},
      {"ctrl_queue_wait_us", "us", median(c.ctrl_wait_us)},
  };
}

void print_metrics(const char* title, const Metrics& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    if (std::isnan(m.value)) {
      std::printf("  %-32s %16s\n", m.name.c_str(), "n/a");
    } else {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// Writes `{name: {"value": v, "unit": u}, ...}`, leaving out n/a values.
void write_metrics(support::JsonWriter& j, const std::string& key,
                   const Metrics& ms) {
  j.obj_open(key);
  for (const Metric& m : ms) {
    if (std::isnan(m.value)) continue;
    j.obj_open(m.name).field("value", m.value).field("unit", m.unit);
    j.obj_close();
  }
  j.obj_close();
}

// ---------------------------------------------------------------------------
// Process plumbing
// ---------------------------------------------------------------------------

/// A fresh TMPDIR for the run, removed at exit. The JIT writes its modules
/// under $TMPDIR, so every run starts with no compiled module on disk and
/// set-up stays a cold-start number even if the JIT ever grows a disk cache.
class FreshTmpDir {
 public:
  FreshTmpDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr && *base != '\0' ? base
                                                                    : "/tmp") +
                       "/bench_e2e-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return;
    path_ = tmpl;
    ::setenv("TMPDIR", path_.c_str(), 1);
  }
  ~FreshTmpDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  FreshTmpDir(const FreshTmpDir&) = delete;
  FreshTmpDir& operator=(const FreshTmpDir&) = delete;

  [[nodiscard]] bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_file;
  std::string out_file;
};

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *err = "missing value for " + arg;
      return false;
    }
    try {
      if (arg == "--workload") {
        a->workload = value;
      } else if (arg == "--seed") {
        a->seed = std::stoull(value);
      } else if (arg == "--seconds") {
        a->seconds = std::stod(value);
      } else if (arg == "--trace") {
        a->trace_file = value;
      } else if (arg == "--out") {
        a->out_file = value;
      } else {
        *err = "unknown option " + arg;
        return false;
      }
    } catch (const std::exception&) {
      *err = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a->workload) ==
      std::end(kWorkloads)) {
    *err = "unknown workload '" + a->workload + "'";
    return false;
  }
  if (!(a->seconds > 0)) {
    *err = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string err;
  if (!parse_args(argc, argv, &args, &err)) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload=NAME --seed=N "
                 "[--seconds=S] [--trace=FILE] [--out=FILE]\nworkloads: "
                 "apps-burst apps-paced fleet-churn edit-native edit-p4\n",
                 err.c_str());
    return 2;
  }
  const FreshTmpDir tmp;
  if (!tmp.ok()) {
    std::fprintf(stderr, "bench_e2e: cannot create a temporary directory\n");
    return 1;
  }
  register_default_backends();

  Ctx c;
  c.workload = args.workload;
  c.seed = args.seed;
  c.trace = !args.trace_file.empty();
  if (c.trace) Ctx::set_tracing(true);

  const auto after = [start = SteadyClock::now()](double s) {
    return start + std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(s));
  };
  c.setup_deadline = after(kSetupShare * args.seconds);
  c.deadline = after(args.seconds);
  c.tl.open(kWorkload);
  bool ran = false;
  if (c.workload == "apps-burst") ran = run_apps(c, true);
  if (c.workload == "apps-paced") ran = run_apps(c, false);
  if (c.workload == "fleet-churn") ran = run_churn(c);
  if (c.workload == "edit-native") ran = run_edit_native(c);
  if (c.workload == "edit-p4") ran = run_edit_p4(c);
  if (!ran) {
    for (const std::string& m : c.mismatches) {
      std::fprintf(stderr, "bench_e2e: %s\n", m.c_str());
    }
    std::fprintf(stderr, "bench_e2e: workload %s could not run\n",
                 c.workload.c_str());
    return 1;
  }

  const Metrics e2e = end_to_end(c);
  const Metrics layers = per_layer(c);
  const Metrics detail = layer_detail(c);
  const bool correct = c.mismatches.empty();
  const double error_rate =
      c.attempted > 0 ? static_cast<double>(c.failed) /
                            static_cast<double>(c.attempted)
                      : 0.0;
  std::size_t op_count = 0;
  for (const auto& g : c.ops) op_count += g.size();

  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%s\n",
              c.workload.c_str(), static_cast<unsigned long long>(c.seed),
              args.seconds, c.trace ? "on" : "off");
  std::printf("  %zu set-ups, %zu operations in %zu groups; times are %s "
              "time unless named cpu.* or wall.*\n",
              c.setups.size(), op_count, c.ops.size(),
              c.clk == &Dur::wall ? "wall" : "CPU");
  print_metrics("end to end:", e2e);
  std::printf("  %-32s %16.6f fraction (%llu failed of %llu attempted)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.attempted));
  print_metrics("per layer:", layers);
  print_metrics("layer detail (n/a: the workload does not call the layer):",
                detail);
  std::printf("self time by layer (cpu ms of %.3f, wall ms of %.3f):\n",
              c.measured.cpu, c.measured.wall);
  for (int l = 0; l < kNumLayers; ++l) {
    const Dur& s = c.tl.self(static_cast<Layer>(l));
    std::printf("  %-32s %12.3f %12.3f\n",
                l == kWorkload ? "unattributed" : kLayerName[l], s.cpu,
                s.wall);
  }
  for (const std::string& m : c.mismatches) {
    std::printf("MISMATCH: %s\n", m.c_str());
  }

  if (c.trace) {
    std::ofstream out(args.trace_file);
    out << obs::Tracer::global().chrome_json() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.trace_file.c_str());
      return 1;
    }
  }
  if (!args.out_file.empty()) {
    support::JsonWriter j;
    j.obj_open()
        .field("workload", c.workload)
        .field("seed", c.seed)
        .field("seconds", args.seconds)
        .field("traced", c.trace)
        .field("correct", correct)
        .field("attempted", c.attempted)
        .field("failed", c.failed)
        .field("error_rate", error_rate)
        .field("setups", static_cast<std::uint64_t>(c.setups.size()))
        .field("operations", static_cast<std::uint64_t>(op_count));
    write_metrics(j, "end_to_end", e2e);
    write_metrics(j, "per_layer", layers);
    write_metrics(j, "layer_detail", detail);
    j.field("clock", c.clk == &Dur::wall ? "wall" : "cpu").obj_open("self_ms");
    for (int l = 0; l < kNumLayers; ++l) {
      j.field(l == kWorkload ? "unattributed" : kLayerName[l],
              c.tl.self(static_cast<Layer>(l)).*c.clk);
    }
    j.obj_close().obj_close();
    std::ofstream out(args.out_file);
    out << j.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.out_file.c_str());
      return 1;
    }
  }

  // The result line: exactly the metrics of this kind of run.
  support::JsonWriter j;
  j.obj_open()
      .field("correct", correct)
      .field("attempted", c.attempted)
      .field("failed", c.failed);
  write_metrics(j, "metrics", c.trace ? layers : e2e);
  j.obj_close();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
