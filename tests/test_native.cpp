// Native execution engine (src/native): the differential-state contract.
//
// The contract (documented in tests/README.md): for any event schedule, the
// native engine must leave register state *byte-identical* to the reference
// interpreter — every cell of every array, every per-event execution and
// generate count, every scheduler counter. These tests pin that contract on
// all ten paper applications and a slice of generated programs with
// randomized traffic, pin run_batch_raw against one-packet batches on every
// app, pin an injection registered in the past against the interpreter, and
// pin the control-plane adapter (ctrl::FleetDataPlane) on a one-shard
// fleet, including control events against the interpreter's. The JIT tests
// pin the shell-free compile, its registry metrics, an empty $TMPDIR
// afterwards, one compile for concurrent loads of one source, and the
// incremental contract: a one-handler edit changes one unit's text and
// compiles one unit.
//
// The sharded fleet extends the contract per shard (see tests/README.md):
// each ReplicaFleet shard must be byte-identical to a single-threaded
// Replica run of that shard's injection subsequence, at every shard count —
// plus bounded-footprint, tie-break-boundary, and live-control-plane
// (TSan-labeled) coverage for the batched event loop.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "ctrl/interp_bridge.hpp"
#include "ctrl/native_bridge.hpp"
#include "frontend/progen.hpp"
#include "native/differential.hpp"
#include "native/emit.hpp"
#include "obs/metrics.hpp"
#include "support/bits.hpp"

namespace lucid::native {
namespace {

std::shared_ptr<const Program> build_app(const std::string& key,
                                         CompilationPtr* comp_out = nullptr) {
  interp::TestbedConfig cfg;
  cfg.program_name = key;
  interp::Testbed tb(apps::app(key).source, cfg);
  EXPECT_TRUE(tb.ok()) << tb.diagnostics();
  if (comp_out != nullptr) *comp_out = tb.compilation_ptr();
  std::string err;
  auto prog = Program::build(tb.compilation_ptr(), &err);
  EXPECT_NE(prog, nullptr) << err;
  return prog;
}

// ---------------------------------------------------------------------------
// Differential state pinning: all ten paper apps, randomized traffic
// ---------------------------------------------------------------------------

TEST(NativeDifferential, AllTenAppsByteIdenticalState) {
  std::uint64_t seed = 0xC0FFEE;
  for (const auto& app : apps::all_apps()) {
    const auto out =
        diff::run_differential(app.source, app.key, seed++, 300);
    EXPECT_TRUE(out.ok) << app.key << ": " << out.detail;
    // A run that executed nothing would pass the diff vacuously.
    EXPECT_GT(out.interp.executed, 0u) << app.key;
  }
}

TEST(NativeDifferential, SeedChangesScheduleButNotAgreement) {
  const auto& app = apps::app("SFW");
  const auto a = diff::run_differential(app.source, app.key, 1, 200);
  const auto b = diff::run_differential(app.source, app.key, 2, 200);
  EXPECT_TRUE(a.ok) << a.detail;
  EXPECT_TRUE(b.ok) << b.detail;
  // Different seeds produce genuinely different runs (else the sweep above
  // is ten copies of one data point).
  EXPECT_NE(a.interp.arrays, b.interp.arrays);
}

// ---------------------------------------------------------------------------
// Generated programs: the contract beyond the ten hand-written apps
// ---------------------------------------------------------------------------

TEST(NativeDifferential, GeneratedProgramsByteIdenticalState) {
  frontend::ProgenConfig cfg;
  cfg.consts = 3;
  cfg.arrays = 6;
  cfg.memops = 2;
  cfg.funs = 2;
  cfg.handlers = 6;
  cfg.stmts_per_handler = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const std::string name = "gen" + std::to_string(seed);
    const auto out = diff::run_differential(frontend::generate_program(cfg),
                                            name, seed, 300);
    EXPECT_TRUE(out.ok) << name << ": " << out.detail;
    EXPECT_GT(out.interp.executed, 0u) << name;
  }
}

// Arguments bind, in the interpreter as in the lowering:
//   - events are values: `Event.delay(e, t)` and `Event.locate(e, n)` return
//     a changed copy and leave `e` as it was. Each program generates the
//     changed copy and then `e` itself, so an engine that aliases the two
//     delays (or routes) both;
//   - an array parameter names the caller's array: a helper passing its
//     `arr` on to a helper whose parameter is also `arr` writes the
//     handler's `b`, not nothing.
TEST(NativeDifferential, ArgumentsBindTheCallersValue) {
  const std::string prelude =
      "global hits = new Array<<32>>(8);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event hit(int a);\n"
      "event tick(int a);\n"
      "handle hit(int a) { Array.set(hits, a & 7, plus, 1); }\n";
  const std::string delay =
      prelude +
      "handle tick(int a) {\n"
      "  event e = hit(7);\n"
      "  generate Event.delay(e, 50us);\n"
      "  generate e;\n"
      "  generate Event.delay(tick(a + 1), 10us);\n"
      "}\n";
  const std::string locate =
      prelude +
      "handle tick(int a) {\n"
      "  event e = hit(7);\n"
      "  generate Event.locate(e, 2);\n"
      "  generate e;\n"
      "  generate Event.delay(tick(a + 1), 10us);\n"
      "}\n";
  const std::string alias =
      "global a = new Array<<32>>(4);\n"
      "global b = new Array<<32>>(4);\n"
      "event e(int i);\n"
      "fun void inner(Array<<32>> arr, int i) { Array.set(arr, i, 7); }\n"
      "fun void outer(Array<<32>> x, Array<<32>> arr, int i) {\n"
      "  Array.set(x, i, 9);\n"
      "  inner(arr, i);\n"
      "}\n"
      "handle e(int i) { outer(a, b, i & 3); }\n";
  for (const auto& [name, source] :
       {std::pair{"delay", delay}, std::pair{"locate", locate},
        std::pair{"alias", alias}}) {
    const auto out = diff::run_differential(source, name, 7, 200);
    EXPECT_TRUE(out.ok) << name << ": " << out.detail;
    EXPECT_GT(out.interp.executed, 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Per-app parameterized suites: the parameter indexes apps::all_apps()
// ---------------------------------------------------------------------------

class PerApp : public ::testing::TestWithParam<int> {
 protected:
  const apps::AppSpec& spec() const {
    return apps::all_apps()[static_cast<std::size_t>(GetParam())];
  }
};

std::string app_param_name(const ::testing::TestParamInfo<int>& info) {
  return apps::all_apps()[static_cast<std::size_t>(info.param)].key;
}

// ---------------------------------------------------------------------------
// run_batch_raw == sequential one-packet calls
// ---------------------------------------------------------------------------

class NativeBatchApps : public PerApp {};

TEST_P(NativeBatchApps, BatchMatchesSequentialRunOne) {
  const auto prog = build_app(spec().key);
  ASSERT_NE(prog, nullptr);
  const ir::ProgramIR& ir = prog->ir();

  // Two identical zeroed register files.
  std::vector<std::vector<std::int64_t>> one_cells;
  std::vector<std::vector<std::int64_t>> batch_cells;
  std::vector<std::int64_t*> one_ptrs;
  std::vector<std::int64_t*> batch_ptrs;
  for (const auto& arr : ir.arrays) {
    one_cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
    batch_cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  for (auto& c : one_cells) one_ptrs.push_back(c.data());
  for (auto& c : batch_cells) batch_ptrs.push_back(c.data());

  // 1000 packets round-robin over every handled event with varied args:
  // one 1000-packet run_batch_raw call against 1000 one-packet calls.
  std::vector<const ir::EventInfo*> handled;
  for (const auto& cand : ir.events) {
    if (cand.has_handler) handled.push_back(&cand);
  }
  ASSERT_FALSE(handled.empty());

  std::vector<PacketIn> packets;
  std::uint64_t rng = 42;
  for (int i = 0; i < 1000; ++i) {
    const ir::EventInfo* ev =
        handled[static_cast<std::size_t>(i) % handled.size()];
    PacketIn in;
    in.event_id = ev->event_id;
    in.nargs = static_cast<std::int32_t>(ev->params.size());
    in.now_ns = 1000 + i;
    in.self_id = 1;
    for (std::int32_t a = 0; a < in.nargs; ++a) {
      in.args[a] =
          static_cast<std::int64_t>(diff::splitmix64(rng) % 100000);
    }
    packets.push_back(in);
  }

  const auto gens = std::max<std::int32_t>(prog->module().max_gens(), 1);
  std::vector<GenOut> one_out(packets.size() * static_cast<std::size_t>(gens));
  std::vector<std::int32_t> one_counts(packets.size(), -1);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    prog->module().run_batch_raw(
        one_ptrs.data(), &packets[i], 1,
        one_out.data() + i * static_cast<std::size_t>(gens), &one_counts[i]);
  }

  std::vector<GenOut> batch_out(packets.size() *
                                static_cast<std::size_t>(gens));
  std::vector<std::int32_t> batch_counts(packets.size(), -1);
  prog->module().run_batch_raw(batch_ptrs.data(), packets.data(),
                               static_cast<std::int32_t>(packets.size()),
                               batch_out.data(), batch_counts.data());

  EXPECT_EQ(one_cells, batch_cells);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(one_counts[i], batch_counts[i]) << "packet " << i;
    for (std::int32_t g = 0; g < one_counts[i]; ++g) {
      const std::size_t k = i * static_cast<std::size_t>(gens) +
                            static_cast<std::size_t>(g);
      const GenOut& a = one_out[k];
      const GenOut& b = batch_out[k];
      EXPECT_EQ(a.event_id, b.event_id) << "packet " << i << " gen " << g;
      EXPECT_EQ(a.delay_ns, b.delay_ns) << "packet " << i << " gen " << g;
      EXPECT_EQ(a.location, b.location) << "packet " << i << " gen " << g;
      EXPECT_TRUE(std::equal(a.args, a.args + a.nargs, b.args, b.args + b.nargs))
          << "packet " << i << " gen " << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTen, NativeBatchApps, ::testing::Range(0, 10),
                         app_param_name);

// ---------------------------------------------------------------------------
// Control plane over the native fleet
// ---------------------------------------------------------------------------

TEST(NativeCtrl, FleetDataPlaneDrivesShardState) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);
  FleetConfig fcfg;  // one shard
  fcfg.label_metrics = false;
  ReplicaFleet fleet(prog, fcfg);
  ASSERT_EQ(fleet.shards(), 1);
  ctrl::FleetDataPlane dp(fleet);

  // Batches apply at the side scheduler's apply points (here: flush).
  sim::Simulator sim;
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 99;
  pisa::Switch sw(sim, sw_cfg);
  sched::EventScheduler sc(sw, sched::SchedulerConfig{});
  ctrl::ControlPlane plane(dp, sc, ctrl::ControlPlaneConfig{});

  // An array narrow enough for a 41-bit value to be masked.
  const ir::ArrayInfo* arr = nullptr;
  for (const auto& cand : prog->ir().arrays) {
    if (cand.width < 40 && cand.size >= 8) {
      arr = &cand;
      break;
    }
  }
  ASSERT_NE(arr, nullptr);
  const auto slot =
      static_cast<std::size_t>(prog->ir().array_index.at(arr->name));
  const Replica& shard = fleet.shard(0);

  EXPECT_TRUE(dp.has_array(arr->name));
  EXPECT_EQ(dp.array_size(arr->name), arr->size);
  EXPECT_FALSE(dp.has_array("no_such_array"));
  EXPECT_EQ(dp.array_size("no_such_array"), -1);

  ctrl::UpdateBatch batch;
  batch.writes.push_back(ctrl::RegWrite{arr->name, 3, 77});
  ctrl::BatchResult last;
  batch.on_done = [&last](const ctrl::BatchResult& r) { last = r; };
  plane.submit(std::move(batch));
  EXPECT_EQ(shard.control_read(slot, 3), 0);  // invisible until applied
  plane.flush();
  EXPECT_TRUE(last.applied);
  EXPECT_EQ(shard.control_read(slot, 3), 77);
  EXPECT_EQ(dp.read(arr->name, 3), 77);

  // Writes are masked to the cell width, like pisa::RegisterArray::set.
  const std::int64_t wide = (std::int64_t{1} << 40) | 9;
  ctrl::UpdateBatch masked;
  masked.writes.push_back(ctrl::RegWrite{arr->name, 4, wide});
  plane.submit(std::move(masked));
  plane.flush();
  EXPECT_EQ(shard.control_read(slot, 4),
            support::mask_width(wide, arr->width));
  EXPECT_NE(shard.control_read(slot, 4), wide);

  // A negative index wraps to the end of the array.
  ctrl::UpdateBatch wrapped;
  wrapped.writes.push_back(ctrl::RegWrite{arr->name, -1, 5});
  plane.submit(std::move(wrapped));
  plane.flush();
  EXPECT_EQ(shard.control_read(slot, arr->size - 1), 5);
  EXPECT_EQ(dp.read(arr->name, -1), 5);
}

// A control event posted through ControlPlane takes the switch-CPU path on
// both engines: it enters through the recirculation port at the post time
// and is due `delay` later, so a not-yet-due event waits in the delay
// queue. The handler's Sys.time() stamp and the recirculation count agree
// between a Testbed node and a one-shard fleet at every delay.
TEST(NativeCtrl, ControlEventsTakeTheSwitchCpuPathOnBothEngines) {
  const std::string src =
      "global t = new Array<<32>>(1);\n"
      "event stamp();\n"
      "handle stamp() { Array.set(t, 0, Sys.time()); }\n";
  // Commits cost nothing, so the interpreter's pipeline is never stalled
  // by the plane (the fleet's plane runs on a side switch).
  ctrl::ControlPlaneConfig free_commits;
  free_commits.batch_overhead_ns = 0;
  free_commits.per_op_ns = 0;
  const sim::Time post_at = 10 * sim::kUs;
  for (const sim::Time delay : {sim::Time{0}, 3 * sim::kUs, 250 * sim::kUs}) {
    SCOPED_TRACE(delay);
    interp::Testbed tb(src);
    ASSERT_TRUE(tb.ok()) << tb.diagnostics();
    ctrl::RuntimeControl rc(tb.node(1), free_commits);
    tb.sim().run_until(post_at);
    rc.plane().post_event("stamp", {}, delay);
    rc.plane().flush();
    tb.sim().run_until(sim::kMs);

    std::string err;
    const auto prog = Program::build(tb.compilation_ptr(), &err);
    ASSERT_NE(prog, nullptr) << err;
    FleetConfig fcfg;  // one shard
    fcfg.replica.switch_cfg.id = 1;
    fcfg.label_metrics = false;
    ReplicaFleet fleet(prog, fcfg);
    ctrl::FleetDataPlane dp(fleet);
    sim::Simulator side_sim;
    pisa::Switch side_sw(side_sim, pisa::SwitchConfig{});
    sched::EventScheduler side(side_sw, sched::SchedulerConfig{});
    ctrl::ControlPlane plane(dp, side, free_commits);
    fleet.run_until(post_at);
    plane.post_event("stamp", {}, delay);
    plane.flush();
    fleet.run_until(sim::kMs);

    const std::int64_t stamp = tb.node(1).array("t")->get(0);
    EXPECT_GT(stamp, post_at + delay);
    EXPECT_EQ(fleet.shard(0).registers()[0].cells(),
              tb.node(1).registers()[0].cells());
    EXPECT_GE(tb.switch_at(1).recirculations(), 1u);
    EXPECT_EQ(fleet.merged_stats().recirculations,
              tb.switch_at(1).recirculations());
  }
}

// ---------------------------------------------------------------------------
// Injection validation and bounded footprint
// ---------------------------------------------------------------------------

TEST(NativeReplica, RejectsOverArityInjection) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);
  const ir::EventInfo* ev = nullptr;
  for (const auto& cand : prog->ir().events) {
    if (cand.has_handler) {
      ev = &cand;
      break;
    }
  }
  ASSERT_NE(ev, nullptr);

  // More args than the ABI packet can carry must be rejected up front —
  // the same reject semantics interp::Runtime::inject has — never truncated
  // into the fixed args[kMaxArgs] array.
  std::vector<std::int64_t> over(static_cast<std::size_t>(kMaxArgs) + 1, 1);
  Replica rep(prog, ReplicaConfig{});
  EXPECT_FALSE(rep.schedule_inject(1000, ev->name, over));

  ReplicaFleet fleet(prog, FleetConfig{});
  EXPECT_FALSE(fleet.schedule_inject(1000, ev->name, over));

  // The valid arity still injects (the guard is not rejecting everything).
  std::vector<std::int64_t> ok_args(ev->params.size(), 1);
  EXPECT_TRUE(rep.schedule_inject(1000, ev->name, ok_args));
}

TEST(NativeReplica, InjectionIntoThePastMatchesInterp) {
  // After the clock passed 10 us, an injection registered for t=100 arrives
  // now (Simulator::at clamps the time), and its 5 us delay counts from
  // there: the reference stamps created/due when its closure fires. At
  // 20 us the packet must be parked in the delay queue, not executed; the
  // next PFC release (100 us) lets it run.
  const auto& app = apps::app("SFW");
  interp::TestbedConfig cfg;
  cfg.program_name = app.key;
  cfg.switch_ids = {1};
  interp::Testbed tb(app.source, cfg);
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  std::string err;
  const auto prog = Program::build(tb.compilation_ptr(), &err);
  ASSERT_NE(prog, nullptr) << err;
  const ir::EventInfo* traffic = nullptr;
  for (const auto& cand : prog->ir().events) {
    if (cand.has_handler &&
        !diff::is_timer_event(prog->ir(), cand.event_id)) {
      traffic = &cand;
      break;
    }
  }
  ASSERT_NE(traffic, nullptr);
  const std::vector<std::int64_t> args(traffic->params.size(), 3);

  ReplicaConfig rcfg;
  rcfg.switch_cfg.id = 1;
  Replica rep(prog, rcfg);
  interp::Runtime& rt = tb.node(1);
  tb.sim().run_until(10000);
  rep.run_until(10000);
  tb.sim().at(100, [&rt, traffic, &args] {
    rt.inject(traffic->name, args, /*delay_ns=*/5000);
  });
  ASSERT_TRUE(rep.schedule_inject(100, traffic->name, args, 5000));

  tb.sim().run_until(20000);
  rep.run_until(20000);
  const auto& ref = tb.sched_at(1).stats();
  EXPECT_EQ(ref.delayed_enqueues, 1u);
  EXPECT_EQ(ref.executed, 0u);
  EXPECT_EQ(rep.stats().delayed_enqueues, ref.delayed_enqueues);
  EXPECT_EQ(rep.stats().executed, ref.executed);

  tb.sim().run_until(300 * sim::kUs);
  rep.run_until(300 * sim::kUs);
  EXPECT_EQ(ref.executed, 1u);
  EXPECT_EQ(rep.stats().executed, ref.executed);
  EXPECT_EQ(rep.stats().delay_samples, ref.delay_samples.size());
  EXPECT_EQ(rep.run_stats().executions, rt.stats().executions);
  for (std::size_t a = 0; a < rep.array_count(); ++a) {
    const pisa::RegisterArray* cells =
        rt.array(prog->ir().arrays[a].name);
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(rep.array_cells(a), cells->cells())
        << prog->ir().arrays[a].name;
  }
}

TEST(NativeReplica, PendingFootprintBoundedOverMillionInjections) {
  const auto prog = build_app("CM");
  ASSERT_NE(prog, nullptr);
  // A non-timer event: no self-perpetuating cascades, so the run drains
  // exactly what the cycle scheduled.
  const ir::EventInfo* traffic = nullptr;
  for (const auto& cand : prog->ir().events) {
    if (cand.has_handler &&
        !diff::is_timer_event(prog->ir(), cand.event_id)) {
      traffic = &cand;
      break;
    }
  }
  ASSERT_NE(traffic, nullptr);

  Replica rep(prog, ReplicaConfig{});
  constexpr int kCycles = 200;
  constexpr int kPerCycle = 5000;  // 1M injections total
  sim::Time t = 1000;
  std::uint64_t rng = 7;
  std::size_t high_water = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (int i = 0; i < kPerCycle; ++i) {
      std::vector<std::int64_t> args;
      args.reserve(traffic->params.size());
      for (std::size_t a = 0; a < traffic->params.size(); ++a) {
        args.push_back(
            static_cast<std::int64_t>(diff::splitmix64(rng) % 4096));
      }
      rep.schedule_inject(t, traffic->name, std::move(args));
      t += 100;
    }
    rep.run_until(t + 10 * sim::kUs);
    high_water = std::max(high_water, rep.pending_footprint());
  }
  EXPECT_EQ(rep.stats().executed,
            static_cast<std::uint64_t>(kCycles) * kPerCycle);
  // The regression: consumed injections are compacted away, so the
  // footprint tracks one cycle's backlog, not the 1M-injection total.
  EXPECT_LT(high_water, static_cast<std::size_t>(4 * kPerCycle));
}

TEST(NativeReplica, ShardBatchHistogramPublishesAtRunBoundary) {
  // A shard's drain sizes accumulate locally and reach the labelled
  // registry histogram once per run_until: one observation per drain, the
  // observations summing to the passes drained. Three same-timestamp bursts
  // of a handler that generates nothing drain as three batches.
  interp::TestbedConfig cfg;
  cfg.program_name = "batch_hist";
  interp::Testbed tb(R"(
global counts = new Array<<32>>(16);
memop plus(int cur, int x) { return cur + x; }
event pkt(int i);
handle pkt(int i) {
  int slot = i & 15;
  Array.set(counts, slot, plus, 1);
}
)",
                     cfg);
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  std::string err;
  const auto prog = Program::build(tb.compilation_ptr(), &err);
  ASSERT_NE(prog, nullptr) << err;

  ReplicaConfig rcfg;
  rcfg.shard_id = 9101;  // a series no other test writes
  Replica rep(prog, rcfg);
  const obs::Histogram& hist = obs::Registry::global().histogram(
      "lucid_native_shard_batch_size", {{"shard", "9101"}});
  const std::pair<sim::Time, int> bursts[] = {
      {10 * sim::kUs, 5}, {50 * sim::kUs, 3}, {90 * sim::kUs, 1}};
  for (const auto& [t, n] : bursts) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(rep.schedule_inject(t, "pkt", {i}));
    }
  }
  EXPECT_EQ(hist.count(), 0u);

  rep.run_until(40 * sim::kUs);
  EXPECT_EQ(rep.stats().executed, 5u);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.sum(), 5u);

  rep.run_until(200 * sim::kUs);
  EXPECT_EQ(rep.stats().executed, 9u);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.sum(), rep.stats().executed);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 5u);
  EXPECT_EQ(hist.bucket_count(obs::Histogram::bucket_of(3)), 1u);
}

// ---------------------------------------------------------------------------
// Sharded fleet: the per-shard differential-state contract
// ---------------------------------------------------------------------------

// Apps whose merged work must not depend on the shard count. RIP is the one
// exception: it floods an advertisement only when a relaxation improves the
// shard's own dist register, and how often that happens depends on which
// updates share a slab. It still gets the per-shard and sum checks.
bool merged_work_shard_invariant(const std::string& key) {
  return key != "RIP";
}

class NativeFleetApps : public PerApp {};

TEST_P(NativeFleetApps, ShardCountInvariance) {
  const auto prog = build_app(spec().key);
  ASSERT_NE(prog, nullptr);
  const auto plan = diff::make_burst_schedule(prog->ir(), 11, 60, 16);

  RunStats first_merged;
  std::uint64_t first_executed = 0;
  for (const int shards : {1, 2, 4, 8}) {
    FleetConfig fcfg;
    fcfg.shards = shards;
    fcfg.label_metrics = false;
    ReplicaFleet fleet(prog, fcfg);
    for (const auto& e : plan.entries) {
      ASSERT_TRUE(fleet.schedule_inject(e.t, e.event, e.args)) << e.event;
    }
    fleet.run_until(plan.horizon);

    // Each shard must match a single-threaded Replica run of the shard's
    // injection subsequence, re-derived here with the public routing hash.
    RunStats ref_sum;
    std::uint64_t ref_executed = 0;
    for (int s = 0; s < shards; ++s) {
      Replica ref(prog, ReplicaConfig{});
      for (const auto& e : plan.entries) {
        const ir::EventInfo* ev = prog->find_event(e.event);
        ASSERT_NE(ev, nullptr);
        if (ReplicaFleet::route(shards, -1, ev->event_id, e.args) !=
            static_cast<std::size_t>(s)) {
          continue;
        }
        ASSERT_TRUE(ref.schedule_inject(e.t, e.event, e.args));
      }
      ref.run_until(plan.horizon);
      const Replica& live = fleet.shard(static_cast<std::size_t>(s));
      for (std::size_t a = 0; a < ref.array_count(); ++a) {
        ASSERT_EQ(ref.array_cells(a), live.array_cells(a))
            << shards << " shards, shard " << s << ", array "
            << prog->ir().arrays[a].name;
      }
      EXPECT_EQ(ref.stats().executed, live.stats().executed);
      const RunStats& rs = ref.run_stats();
      ref_sum.total_executions += rs.total_executions;
      for (const auto& [name, n] : rs.executions) ref_sum.executions[name] += n;
      for (const auto& [name, n] : rs.generated) ref_sum.generated[name] += n;
      ref_executed += ref.stats().executed;
    }

    // Merged totals are the sum of the references.
    const RunStats merged = fleet.merged_run_stats();
    const std::uint64_t executed = fleet.merged_stats().executed;
    EXPECT_EQ(merged.total_executions, ref_sum.total_executions);
    EXPECT_EQ(merged.executions, ref_sum.executions);
    EXPECT_EQ(merged.generated, ref_sum.generated);
    EXPECT_EQ(executed, ref_executed);
    EXPECT_GT(executed, 0u);

    // And shard-count invariant: every injection lands on exactly one shard
    // and cascades there, so 1/2/4/8 shards partition identical work.
    if (shards == 1) {
      first_merged = merged;
      first_executed = executed;
    } else if (merged_work_shard_invariant(spec().key)) {
      EXPECT_EQ(merged.total_executions, first_merged.total_executions)
          << shards << " shards";
      EXPECT_EQ(merged.executions, first_merged.executions) << shards;
      EXPECT_EQ(merged.generated, first_merged.generated) << shards;
      EXPECT_EQ(executed, first_executed) << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTen, NativeFleetApps, ::testing::Range(0, 10),
                         app_param_name);

// ---------------------------------------------------------------------------
// Batched drain across a timestamp tie-break boundary
// ---------------------------------------------------------------------------

TEST(NativeBatch, DrainAcrossTimestampTieBreakBoundary) {
  // Burst gap == pipeline latency: burst b's pipeline passes finish at
  // exactly the timestamp burst b+1's injections arrive, so every drain
  // runs into same-timestamp pending injections and (for delay-heavy apps)
  // same-timestamp PFC frames — the tie-break boundaries the drain must
  // stop at. The reference interpreter is the oracle.
  for (const char* key : {"SFW", "NAT"}) {
    const auto& app = apps::app(key);
    interp::TestbedConfig cfg;
    cfg.program_name = app.key;
    interp::Testbed probe(app.source, cfg);
    ASSERT_TRUE(probe.ok()) << probe.diagnostics();
    std::string err;
    const auto prog = Program::build(probe.compilation_ptr(), &err);
    ASSERT_NE(prog, nullptr) << err;

    const sim::Time pipe = pisa::SwitchConfig{}.pipeline_latency_ns;
    const auto plan =
        diff::make_burst_schedule(prog->ir(), 23, 40, 8, /*gap_ns=*/pipe);

    const auto iref = diff::run_interp(app.source, app.key, plan);
    const auto native = diff::run_native(prog, plan);

    EXPECT_EQ(diff::compare(prog->ir(), iref, native), "") << key;
    EXPECT_GT(native.executed, 0u) << key;
  }
}

// ---------------------------------------------------------------------------
// Fleet under a live control plane (TSan target: ctest -L concurrency)
// ---------------------------------------------------------------------------

TEST(NativeFleet, ControlPlaneAppliesWhileFleetRuns) {
  const auto prog = build_app("SFW");
  ASSERT_NE(prog, nullptr);

  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.label_metrics = false;
  ReplicaFleet fleet(prog, fcfg);
  ctrl::FleetDataPlane dp(fleet);

  // The ControlPlane lives on its own side scheduler (the control point in
  // a deployment); batches apply on this thread at flush boundaries, while
  // the fleet's shards run on pool workers and a producer thread submits
  // concurrently — the exact discipline native_bridge.hpp documents, and
  // what TSan checks under -DLUCID_SANITIZER=thread.
  sim::Simulator sim;
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 99;
  pisa::Switch sw(sim, sw_cfg);
  sched::EventScheduler sc(sw, sched::SchedulerConfig{});
  ctrl::ControlPlane plane(dp, sc, ctrl::ControlPlaneConfig{});

  // A control-written array with at least 8 cells.
  const ir::ArrayInfo* arr = nullptr;
  for (const auto& cand : prog->ir().arrays) {
    if (cand.size >= 8) {
      arr = &cand;
      break;
    }
  }
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(dp.has_array(arr->name));

  const auto plan = diff::make_burst_schedule(prog->ir(), 31, 40, 8);
  for (const auto& e : plan.entries) {
    ASSERT_TRUE(fleet.schedule_inject(e.t, e.event, e.args));
  }

  std::atomic<int> committed{0};
  std::thread producer([&plane, &committed, arr] {
    for (int i = 0; i < 64; ++i) {
      ctrl::UpdateBatch b;
      b.writes.push_back(ctrl::RegWrite{arr->name, i % 8, i & 1});
      b.on_done = [&committed](const ctrl::BatchResult& r) {
        if (r.applied) committed.fetch_add(1);
      };
      plane.submit(std::move(b));
    }
  });

  // Alternate run slices and apply ticks: shard state is only touched from
  // this thread while the fleet is quiescent (the pool join publishes it).
  for (int slice = 1; slice <= 8; ++slice) {
    fleet.run_until(plan.horizon * slice / 8);
    plane.flush();
  }
  producer.join();
  plane.flush();
  EXPECT_EQ(committed.load(), 64);
  EXPECT_GT(fleet.merged_stats().executed, 0u);

  // Determinism check after the race: a batch applied with the fleet fully
  // drained is the last writer, so every shard must agree on it
  // (replicated control tables broadcast to all shards).
  ctrl::UpdateBatch fin;
  for (std::int64_t i = 0; i < 8; ++i) {
    fin.writes.push_back(ctrl::RegWrite{arr->name, i, i & 1});
  }
  plane.submit(std::move(fin));
  plane.flush();
  const int slot = prog->ir().array_index.at(arr->name);
  for (std::int64_t i = 0; i < 8; ++i) {
    const std::int64_t want = i & 1;
    EXPECT_EQ(dp.read(arr->name, i), want) << "index " << i;
    for (int s = 0; s < fleet.shards(); ++s) {
      EXPECT_EQ(fleet.shard(static_cast<std::size_t>(s))
                    .control_read(static_cast<std::size_t>(slot), i),
                want)
          << "shard " << s << " index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend registration
// ---------------------------------------------------------------------------

TEST(NativeBackend, RegisteredAndEmits) {
  register_default_backends();
  Backend* be = BackendRegistry::global().find("native");
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->required_stage(), Stage::Layout);

  CompilerDriver driver;
  CompilationPtr comp = driver.start(apps::app("SFW").source);
  ASSERT_TRUE(driver.run_until(comp, Stage::Layout));
  const BackendArtifact art = be->emit(*comp);
  EXPECT_TRUE(art.ok) << comp->diags().render();
  EXPECT_GT(art.metrics.at("loc"), 0);
  EXPECT_GT(art.metrics.at("stages"), 0);
  // The generated module carries the ABI v3 symbols: the version and one
  // lucid_event_<id> entry per handled event, each in its own unit. v2's
  // batch entry and max-gens symbol and v1's run_one are gone.
  EXPECT_NE(art.text.find(std::string(kSymAbiVersion) + "("),
            std::string::npos);
  const ModuleUnits split = split_units(art.text);
  std::size_t handled = 0;
  for (const auto& ev : comp->ir().events) handled += ev.has_handler ? 1 : 0;
  EXPECT_EQ(split.units.size(), handled);
  for (const ModuleUnit& unit : split.units) {
    ASSERT_GE(unit.event_id, 0);
    const std::string entry =
        kSymEventPrefix + std::to_string(unit.event_id) + "(";
    EXPECT_NE(unit.text.find(entry), std::string::npos) << entry;
  }
  for (const char* gone : {"lucid_native_run_batch", "lucid_native_max_gens",
                           "lucid_native_run_one"}) {
    EXPECT_EQ(art.text.find(gone), std::string::npos) << gone;
  }
}

// The engine's envelope (native::check_envelope) rejects the same programs
// through both entry points: Program::build and the registered backend.
TEST(NativeBackend, EnvelopeRejectsThroughBuildAndEmit) {
  register_default_backends();
  std::string too_many;
  for (int i = 0; i < kMaxArgs + 1; ++i) {
    too_many += (i > 0 ? ", int a" : "int a") + std::to_string(i);
  }
  DriverOptions no_salus;  // no stage can hold a register array
  no_salus.model.salus_per_stage = 0;
  const struct {
    const char* code;
    std::string source;
    DriverOptions options;
  } cases[] = {
      {"native-layout-infeasible", apps::app("SFW").source, no_salus},
      {"native-too-many-params",
       "event big(" + too_many + ");\nhandle big(" + too_many +
           ") { int x = a0; }\n",
       DriverOptions{}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.code);
    const CompilerDriver driver(c.options);
    const CompilationPtr comp = driver.run(c.source, Stage::Layout);
    ASSERT_TRUE(comp->ok()) << comp->diags().render();

    const auto violation = check_envelope(*comp);
    ASSERT_TRUE(violation.has_value());
    EXPECT_EQ(violation->code, c.code);

    std::string err;
    EXPECT_EQ(Program::build(comp, &err), nullptr);
    EXPECT_EQ(err, violation->message);

    const BackendArtifact art = driver.emit(comp, "native");
    EXPECT_FALSE(art.ok);
    ASSERT_FALSE(comp->diags().all().empty());
    EXPECT_EQ(comp->diags().all().back().code, c.code);
    EXPECT_EQ(comp->diags().all().back().message, violation->message);
  }
}

// ---------------------------------------------------------------------------
// JIT: no shell, and the registry sees every compile
// ---------------------------------------------------------------------------

/// SFW's module text behind a unique leading comment: the comment is part
/// of the prelude, which every unit's cache key covers, so neither the
/// module cache nor the unit cache has seen any of it.
std::string fresh_module_source(const std::string& tag) {
  CompilerDriver driver;
  CompilationPtr comp = driver.start(apps::app("SFW").source);
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout));
  return "// " + tag + "\n" + emit_source(*comp, "SFW").text;
}

/// Runs `fn` with $TMPDIR set to `dir`, then restores it.
template <typename Fn>
void with_tmpdir(const std::string& dir, Fn fn) {
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  fn();
  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
}

TEST(NativeJit, LoadsWhenTmpdirHasQuoteAndSpace) {
  const std::string dir = ::testing::TempDir() + "lucid it's " +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0) << dir;
  std::string err;
  std::shared_ptr<Module> mod;
  with_tmpdir(dir, [&] { mod = Module::load(fresh_module_source(dir), &err); });
  EXPECT_NE(mod, nullptr) << err;
  std::filesystem::remove_all(dir);
}

TEST(NativeJit, LeavesNoFilesInTmpdir) {
  const std::string dir =
      ::testing::TempDir() + "lucid-clean-" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0) << dir;
  auto leftovers = [&dir] {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
      names.push_back(e.path().string());
    }
    return names;
  };
  with_tmpdir(dir, [&] {
    std::string err;
    EXPECT_NE(Module::load(fresh_module_source("clean"), &err), nullptr)
        << err;
    EXPECT_EQ(leftovers(), std::vector<std::string>{}) << "after a load";
    EXPECT_EQ(Module::load("not C++ (clean)\n", &err), nullptr);
    EXPECT_NE(err.find("compile failed"), std::string::npos) << err;
    EXPECT_EQ(leftovers(), std::vector<std::string>{}) << "after a failure";
  });
  std::filesystem::remove_all(dir);
}

TEST(NativeJit, CompileAndCacheMetrics) {
  auto& reg = obs::Registry::global();
  const auto& hist = reg.histogram("lucid_native_jit_compile_us");
  const auto& hits = reg.counter("lucid_native_jit_cache_hits_total");
  const auto& misses = reg.counter("lucid_native_jit_cache_misses_total");
  const auto& failures = reg.counter("lucid_native_jit_failures_total");
  const std::string source = fresh_module_source("metrics");

  const auto count0 = hist.count();
  const auto hits0 = hits.value();
  const auto misses0 = misses.value();
  std::string err;
  const auto cold = Module::load(source, &err);
  ASSERT_NE(cold, nullptr) << err;
  EXPECT_EQ(misses.value(), misses0 + 1);
  EXPECT_EQ(hist.count(), count0 + 1);
  EXPECT_EQ(hits.value(), hits0);

  const auto warm = Module::load(source, &err);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(misses.value(), misses0 + 1);
  EXPECT_EQ(hist.count(), count0 + 1);

  const auto failures0 = failures.value();
  EXPECT_EQ(Module::load("not C++\n", &err), nullptr);
  EXPECT_EQ(failures.value(), failures0 + 1);
  EXPECT_NE(err.find("compile failed"), std::string::npos) << err;
}

TEST(NativeJit, ConcurrentLoadsCompileOnce) {
  auto& reg = obs::Registry::global();
  const auto& hist = reg.histogram("lucid_native_jit_compile_us");
  const auto& compiled = reg.counter("lucid_native_jit_units_compiled_total");
  const std::string source = fresh_module_source("threads");
  const std::size_t units = split_units(source).units.size();
  ASSERT_GT(units, 1u);

  const auto count0 = hist.count();
  const auto compiled0 = compiled.value();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<Module>> mods(kThreads);
  std::vector<std::string> errs(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      mods[static_cast<std::size_t>(i)] =
          Module::load(source, &errs[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const auto k = static_cast<std::size_t>(i);
    ASSERT_NE(mods[k], nullptr) << errs[k];
    EXPECT_EQ(mods[k], mods[0]) << "thread " << i;
  }
  EXPECT_EQ(hist.count(), count0 + 1);
  EXPECT_EQ(compiled.value(), compiled0 + units);
}

// ---------------------------------------------------------------------------
// Incremental JIT: a one-handler edit touches one unit
// ---------------------------------------------------------------------------

/// A handler of an app: its event name and first parameter.
struct HandlerSite {
  std::string event;
  std::string first_param;
};

/// The app's handlers in source order, as frontend::edit_one_handler
/// counts them.
std::vector<HandlerSite> handler_sites(const std::string& src) {
  std::vector<HandlerSite> out;
  for (std::size_t pos = src.find("handle "); pos != std::string::npos;
       pos = src.find("handle ", pos + 7)) {
    const std::size_t open = src.find('(', pos);
    const std::size_t end = src.find_first_of(",)", open);
    const std::string decl = src.substr(open + 1, end - open - 1);
    HandlerSite h;
    h.event = src.substr(pos + 7, open - pos - 7);
    h.first_param = decl.substr(decl.find_last_of(' ') + 1);
    out.push_back(h);
  }
  return out;
}

/// The benches' one-decl edit: a guard on the handler's first parameter
/// that returns early.
std::string guard_edit(const std::string& src, const HandlerSite& h,
                       int which, std::int64_t constant) {
  return frontend::edit_one_handler(
      src, which,
      " if (" + h.first_param + " == " + std::to_string(constant) +
          ") { return; } ");
}

CompilationPtr compile_to_layout(const std::string& source) {
  CompilerDriver driver;
  CompilationPtr comp = driver.start(source);
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout)) << comp->diags().render();
  return comp;
}

/// Event id -> unit text of the compilation's module.
std::map<int, std::string> unit_texts(const Compilation& comp,
                                      const std::string& name) {
  const std::string text = emit_source(comp, name).text;
  std::map<int, std::string> out;
  for (const ModuleUnit& unit : split_units(text).units) {
    EXPECT_GE(unit.event_id, 0) << name;
    out[unit.event_id] = std::string(unit.text);
  }
  return out;
}

TEST(NativeIncremental, GuardEditChangesOnlyItsHandlersUnit) {
  int edits = 0;
  for (const auto& app : apps::all_apps()) {
    const auto base = unit_texts(*compile_to_layout(app.source), app.key);
    const auto sites = handler_sites(app.source);
    for (std::size_t w = 0; w < sites.size(); ++w) {
      const CompilationPtr comp = compile_to_layout(
          guard_edit(app.source, sites[w], static_cast<int>(w), 100000));
      const ir::EventInfo* ev = nullptr;
      for (const auto& cand : comp->ir().events) {
        if (cand.name == sites[w].event) ev = &cand;
      }
      ASSERT_NE(ev, nullptr) << app.key << " " << sites[w].event;
      const auto edited = unit_texts(*comp, app.key);
      std::vector<int> changed;
      for (const auto& [id, text] : edited) {
        const auto it = base.find(id);
        if (it == base.end() || it->second != text) changed.push_back(id);
      }
      for (const auto& [id, text] : base) {
        if (edited.count(id) == 0) changed.push_back(id);
      }
      EXPECT_EQ(changed, std::vector<int>{ev->event_id})
          << app.key << ": edit of " << sites[w].event;
      ++edits;
    }
  }
  EXPECT_GT(edits, 10 * 2);
}

TEST(NativeIncremental, EditedProgramsCompileOneUnitAndMatchInterp) {
  auto& reg = obs::Registry::global();
  const auto& compiled = reg.counter("lucid_native_jit_units_compiled_total");
  const auto& reused = reg.counter("lucid_native_jit_units_reused_total");
  std::int64_t constant = 200000;  // distinct per edit: every unit is new
  std::uint64_t seed = 0xED17;
  for (const auto& app : apps::all_apps()) {
    ASSERT_NE(build_app(app.key), nullptr) << app.key;
    const auto sites = handler_sites(app.source);
    for (std::size_t w = 0; w < sites.size(); ++w) {
      const std::string src = guard_edit(app.source, sites[w],
                                         static_cast<int>(w), constant++);
      const std::string label = app.key + ": edit of " + sites[w].event;
      const auto compiled0 = compiled.value();
      const auto reused0 = reused.value();
      interp::TestbedConfig cfg;
      cfg.program_name = app.key;
      interp::Testbed tb(src, cfg);
      ASSERT_TRUE(tb.ok()) << label << "\n" << tb.diagnostics();
      std::string err;
      const auto prog = Program::build(tb.compilation_ptr(), &err);
      ASSERT_NE(prog, nullptr) << label << ": " << err;
      const std::size_t units =
          split_units(prog->emitted().text).units.size();
      EXPECT_EQ(compiled.value(), compiled0 + 1) << label;
      EXPECT_EQ(reused.value(), reused0 + units - 1) << label;

      const auto out = diff::run_differential(src, app.key, seed++, 200);
      EXPECT_TRUE(out.ok) << label << ": " << out.detail;
      EXPECT_GT(out.interp.executed, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace lucid::native
