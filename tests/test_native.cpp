// Native execution engine (src/native): the differential-state contract.
//
// The contract (documented in tests/README.md): for any event schedule, the
// native engine must leave register state *byte-identical* to the reference
// interpreter — every cell of every array, every per-event execution and
// generate count, every scheduler counter. These tests pin that contract on
// all ten paper applications and a slice of generated programs with
// randomized traffic, pin run_batch against one-packet calls on every app,
// pin the coupled Runtime inside a real multi-node fabric, and pin the
// control-plane adapter (ctrl::NativeDataPlane) against the interp one. The
// JIT tests pin the shell-free compile and its registry metrics.
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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "ctrl/native_bridge.hpp"
#include "frontend/progen.hpp"
#include "native/differential.hpp"
#include "native/emit.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

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
// run_batch == sequential one-packet calls
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
  // one run_batch call against 1000 one-packet calls.
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
  std::vector<std::int32_t> one_counts;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    one_counts.push_back(prog->module().run_one(
        one_ptrs.data(), packets[i],
        one_out.data() + i * static_cast<std::size_t>(gens)));
  }

  std::vector<GenOut> batch_out(packets.size() *
                                static_cast<std::size_t>(gens));
  std::vector<std::int32_t> batch_counts(packets.size(), -1);
  prog->module().run_batch(batch_ptrs.data(), packets.data(),
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
// Coupled Runtime: native engine inside the real simulator fabric
// ---------------------------------------------------------------------------

TEST(NativeRuntime, MultiNodeFabricMatchesInterpTestbed) {
  // DFW distributes flow state across nodes via located events — the app
  // that stresses route_out + fabric delivery the most.
  const auto& app = apps::app("DFW");

  interp::TestbedConfig ref_cfg;
  ref_cfg.program_name = app.key;
  ref_cfg.switch_ids = {1, 2};
  interp::Testbed tb(app.source, ref_cfg);
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();

  std::string err;
  const auto prog = Program::build(tb.compilation_ptr(), &err);
  ASSERT_NE(prog, nullptr) << err;

  // Hand-built native twin of the two-node testbed, same construction
  // order: switches, schedulers, runtimes, then the full-mesh fabric.
  sim::Simulator sim;
  net::Network net(sim);
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 1;
  pisa::Switch sw1(sim, sw_cfg);
  sw_cfg.id = 2;
  pisa::Switch sw2(sim, sw_cfg);
  sched::EventScheduler sc1(sw1, sched::SchedulerConfig{});
  sched::EventScheduler sc2(sw2, sched::SchedulerConfig{});
  Runtime rt1(prog, sc1);
  Runtime rt2(prog, sc2);
  net.add_node(sc1);
  net.add_node(sc2);
  net.connect(1, 2, sim::kUs);

  // Same injection plan on both fabrics: traffic at node 1; DFW's handlers
  // generate located/multicast events that cross to node 2.
  const auto plan = diff::make_schedule(prog->ir(), 7, 200);
  interp::Runtime& ref_rt = tb.node(1);
  for (const auto& e : plan.entries) {
    tb.sim().after(e.t, [&ref_rt, &e] { ref_rt.inject(e.event, e.args); });
    sim.after(e.t, [&rt1, &e] { rt1.inject(e.event, e.args); });
  }
  tb.sim().run_until(plan.horizon);
  sim.run_until(plan.horizon);

  for (const auto& arr : prog->ir().arrays) {
    for (const int node : {1, 2}) {
      pisa::RegisterArray* a = tb.switch_at(node).find_array(arr.name);
      pisa::RegisterArray* b =
          (node == 1 ? sw1 : sw2).find_array(arr.name);
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      ASSERT_EQ(a->size(), b->size());
      for (std::int64_t i = 0; i < a->size(); ++i) {
        ASSERT_EQ(a->get(i), b->get(i))
            << arr.name << "[" << i << "] at node " << node;
      }
    }
  }
  EXPECT_EQ(tb.node(1).stats().executions, rt1.stats().executions);
  EXPECT_EQ(tb.node(2).stats().executions, rt2.stats().executions);
  EXPECT_EQ(tb.node(1).stats().generated, rt1.stats().generated);
  // Non-vacuity: traffic actually ran, and some of it crossed the fabric.
  EXPECT_GT(rt1.stats().total_executions, 0u);
  EXPECT_GT(net.delivered() + net.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Control plane over the native engine
// ---------------------------------------------------------------------------

TEST(NativeCtrl, DataPlaneAdapterDrivesNativeState) {
  CompilationPtr comp;
  const auto prog = build_app("SFW", &comp);
  ASSERT_NE(prog, nullptr);

  sim::Simulator sim;
  pisa::SwitchConfig sw_cfg;
  sw_cfg.id = 1;
  pisa::Switch sw(sim, sw_cfg);
  sched::EventScheduler sc(sw, sched::SchedulerConfig{});
  Runtime rt(prog, sc);
  ctrl::NativeControl nc(rt);

  const std::string arr = prog->ir().arrays.front().name;
  EXPECT_TRUE(nc.dataplane().has_array(arr));
  EXPECT_FALSE(nc.dataplane().has_array("no_such_array"));

  ctrl::UpdateBatch batch;
  batch.writes.push_back(ctrl::RegWrite{arr, 3, 77});
  ctrl::BatchResult last;
  batch.on_done = [&last](const ctrl::BatchResult& r) { last = r; };
  nc.plane().submit(std::move(batch));
  EXPECT_EQ(rt.array(arr)->get(3), 0);  // decoupled until an apply point
  nc.plane().flush();
  EXPECT_TRUE(last.applied);
  EXPECT_EQ(rt.array(arr)->get(3), 77);

  // Native register writes behave like interp ones: masked to cell width.
  ctrl::UpdateBatch wide;
  wide.writes.push_back(ctrl::RegWrite{arr, 4, (std::int64_t{1} << 40) | 9});
  nc.plane().submit(std::move(wide));
  nc.plane().flush();
  EXPECT_EQ(rt.array(arr)->get(4),
            rt.array(arr)->mask((std::int64_t{1} << 40) | 9));
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
  // the same reject semantics Runtime::inject has — never truncated into
  // the fixed args[kMaxArgs] array.
  std::vector<std::int64_t> over(static_cast<std::size_t>(kMaxArgs) + 1, 1);
  Replica rep(prog, ReplicaConfig{});
  EXPECT_FALSE(rep.schedule_inject(1000, ev->name, over));

  ReplicaFleet fleet(prog, FleetConfig{});
  EXPECT_FALSE(fleet.schedule_inject(1000, ev->name, over));

  // The valid arity still injects (the guard is not rejecting everything).
  std::vector<std::int64_t> ok_args(ev->params.size(), 1);
  EXPECT_TRUE(rep.schedule_inject(1000, ev->name, ok_args));
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
  // The generated module carries the three ABI v2 entry points, and not
  // v1's lucid_native_run_one.
  for (const char* sym :
       {kSymAbiVersion, kSymMaxGens, kSymRunBatch}) {
    EXPECT_NE(art.text.find(std::string(sym) + "("), std::string::npos)
        << sym;
  }
  EXPECT_EQ(art.text.find("lucid_native_run_one"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JIT: no shell, and the registry sees every compile
// ---------------------------------------------------------------------------

/// SFW's module text plus a unique trailing comment: a source the
/// process-wide module cache has never seen.
std::string fresh_module_source(const std::string& tag) {
  CompilerDriver driver;
  CompilationPtr comp = driver.start(apps::app("SFW").source);
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout));
  return emit_source(*comp, "SFW").text + "// " + tag + "\n";
}

TEST(NativeJit, LoadsWhenTmpdirHasQuoteAndSpace) {
  const std::string dir = ::testing::TempDir() + "lucid it's " +
                          std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0) << dir;
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  std::string err;
  const auto mod = Module::load(fresh_module_source(dir), &err);
  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_NE(mod, nullptr) << err;
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

}  // namespace
}  // namespace lucid::native
