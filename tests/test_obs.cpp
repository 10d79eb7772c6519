// Observability-layer tests: metrics registry semantics (bucket edges,
// quantiles, exposition formats), tracer ring/sampling behavior, and — the
// load-bearing guarantee — the *no-observable-effect* contract: running any
// app with tracing enabled must leave byte-identical register state and
// event counters versus the same run with tracing off (see tests/README.md).
//
// The *Concurrency tests carry the "concurrency" CTest label: the debug-tsan
// preset races the tracer's enable/disable/export against recording threads,
// concurrent sweeps and the interpreter's trace-hook attach/detach.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/sweep.hpp"
#include "native/differential.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"

namespace lucid {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;
using obs::Tracer;

BackendRegistry& test_registry() {
  static BackendRegistry registry = [] {
    BackendRegistry r;
    register_default_backends(r);
    return r;
  }();
  return registry;
}

/// The global tracer is process-wide state; every tracer test starts from a
/// known-off, empty configuration and leaves it that way.
struct TracerGuard {
  TracerGuard() {
    Tracer::global().disable();
    obs::TracerConfig cfg;  // restore defaults before clearing: clear()
    Tracer::global().enable(cfg);  // stamps ring capacity onto live rings
    Tracer::global().disable();
    Tracer::global().clear();
  }
  ~TracerGuard() {
    Tracer::global().disable();
    obs::TracerConfig cfg;
    Tracer::global().enable(cfg);
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeTracksALevel) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram bucket edges
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketOfEdges) {
  // bucket_of(v) == bit_width(v): zeros in bucket 0, powers of two open a
  // new bucket, and the top bucket (64) holds everything from 2^63 up.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of((std::uint64_t{1} << 32) - 1), 32);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 32), 33);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
}

TEST(ObsMetrics, HistogramBucketUpperIsInclusive) {
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(63), (std::uint64_t{1} << 63) - 1);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Every value lands in the bucket whose inclusive range covers it.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    const int k = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(k)) << v;
    if (k > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(k - 1)) << v;
    }
  }
}

TEST(ObsMetrics, HistogramObserveAtExtremes) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(std::uint64_t{1} << 63);
  h.observe(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(64), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
}

TEST(ObsMetrics, HistogramExactStatsAndQuantiles) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // Bucket-estimated, but clamped by exact extrema and monotone in q.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsMetrics, MergingALocalHistogramEqualsObservingDirectly) {
  Histogram direct;
  Histogram merged;
  direct.observe(7);  // both start from the same non-empty state
  merged.observe(7);
  obs::LocalHistogram local;
  merged.merge(local);  // empty: no effect
  EXPECT_EQ(merged.count(), 1u);
  for (const std::uint64_t v : {0ULL, 1ULL, 3ULL, 32ULL, 32ULL, 1000ULL}) {
    direct.observe(v);
    local.observe(v);
  }
  merged.merge(local);
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.sum(), direct.sum());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  for (int k = 0; k < Histogram::kBuckets; ++k) {
    EXPECT_EQ(merged.bucket_count(k), direct.bucket_count(k)) << k;
  }
}

// ---------------------------------------------------------------------------
// Registry + exposition formats
// ---------------------------------------------------------------------------

TEST(ObsMetrics, RegistryHandsOutStableInstruments) {
  Registry reg;
  Counter& a = reg.counter("test_counter_total", "help text");
  Counter& b = reg.counter("test_counter_total");
  EXPECT_EQ(&a, &b);  // same name -> same instrument
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsMetrics, RegistrySanitizesNamesToPrometheusCharset) {
  Registry reg;
  reg.counter("weird name-with.chars", "h").add(1);
  const std::string prom = reg.prometheus();
  EXPECT_NE(prom.find("weird_name_with_chars 1"), std::string::npos) << prom;
  EXPECT_EQ(prom.find("weird name"), std::string::npos);
}

TEST(ObsMetrics, PrometheusHistogramIsCumulativeAndEndsAtInf) {
  Registry reg;
  Histogram& h = reg.histogram("test_latency_ns", "latency");
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(1000);
  const std::string prom = reg.prometheus();
  EXPECT_NE(prom.find("# TYPE test_latency_ns histogram"), std::string::npos);
  // Cumulative buckets: le="0" holds the zeros, le="1" adds bucket 1, and
  // the +Inf bucket equals _count.
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"0\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"1\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_latency_ns_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_latency_ns_count 4"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_ns_sum 1006"), std::string::npos);
}

TEST(ObsMetrics, JsonSnapshotIsWellFormedAndComplete) {
  Registry reg;
  reg.counter("c_total", "c").add(7);
  reg.gauge("g_level", "g").set(-2);
  reg.histogram("h_ns", "h").observe(42);
  const std::string js = reg.json();
  EXPECT_NE(js.find("\"counters\""), std::string::npos);
  EXPECT_NE(js.find("\"c_total\": 7"), std::string::npos) << js;
  EXPECT_NE(js.find("\"g_level\": -2"), std::string::npos) << js;
  EXPECT_NE(js.find("\"h_ns\""), std::string::npos);
  EXPECT_NE(js.find("\"count\": 1"), std::string::npos);
}

TEST(ObsMetrics, ResetZeroesButKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("will_reset_total", "h");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // the cached reference stays valid
  c.add(1);
  EXPECT_NE(reg.prometheus().find("will_reset_total 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(ObsTracer, DisabledRecordsNothing) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  const std::uint64_t before = t.retained();
  t.instant("test", "off");
  t.mark("test", "off");
  { obs::ScopedSpan span("test", "off"); }
  EXPECT_EQ(t.retained(), before);
}

TEST(ObsTracer, RecordsSpansAndInstantsWhenEnabled) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  t.enable();
  {
    obs::ScopedSpan span("cat", "span_name");
    EXPECT_TRUE(span.live());
    span.arg("n", 7);
    span.arg("tag", "hello");
  }
  t.instant("cat", "instant_name", "k", 3);
  t.disable();
  const std::string js = t.chrome_json();
  EXPECT_EQ(js.find("{\"traceEvents\": ["), 0u) << js;
  EXPECT_NE(js.find("\"name\": \"span_name\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(js.find("\"name\": \"instant_name\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(js.find("\"n\": 7"), std::string::npos);
  EXPECT_NE(js.find("\"tag\": \"hello\""), std::string::npos);
  EXPECT_NE(js.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(ObsTracer, RingWrapsAndCountsDropped) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  obs::TracerConfig cfg;
  cfg.ring_capacity = 8;
  t.enable(cfg);
  t.clear();  // stamp the small capacity onto this thread's live ring
  for (int i = 0; i < 20; ++i) t.instant("test", "e" + std::to_string(i));
  t.disable();
  EXPECT_EQ(t.retained(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  // The survivors are the newest events; the oldest were overwritten.
  const std::string js = t.chrome_json();
  EXPECT_EQ(js.find("\"e0\""), std::string::npos);
  EXPECT_NE(js.find("\"e19\""), std::string::npos);
  EXPECT_NE(js.find("\"dropped_events\": 12"), std::string::npos) << js;
}

TEST(ObsTracer, SamplingKeepsOneInN) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  obs::TracerConfig cfg;
  cfg.sample_every = 4;
  t.enable(cfg);
  t.clear();
  // The per-thread tick's phase is unknown, but over any 400 consecutive
  // calls exactly 100 are selected.
  for (int i = 0; i < 400; ++i) t.mark("test", "sampled");
  t.disable();
  EXPECT_EQ(t.retained(), 100u);
}

TEST(ObsTracer, ClearDropsEventsAndResetsCounts) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  t.enable();
  t.instant("test", "gone");
  t.clear();
  EXPECT_EQ(t.retained(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.chrome_json().find("\"gone\""), std::string::npos);
  t.disable();
}

// ---------------------------------------------------------------------------
// No-observable-effect contract (tests/README.md)
// ---------------------------------------------------------------------------

// Running with tracing fully enabled (sample_every = 1, so every interp
// handler execution records a span) must be indistinguishable — register
// state, per-event execution/generate counts, scheduler and switch counters
// — from the same schedule with tracing off, on all ten paper apps.
TEST(ObsNoEffect, TracingLeavesRegisterStateByteIdentical) {
  TracerGuard guard;
  std::uint64_t seed = 0xD1FF0B5;
  for (const apps::AppSpec& spec : apps::all_apps()) {
    interp::TestbedConfig probe_cfg;
    probe_cfg.program_name = spec.key;
    interp::Testbed probe(spec.source, probe_cfg);
    ASSERT_TRUE(probe.ok()) << spec.key << ": " << probe.diagnostics();
    const auto sched =
        native::diff::make_schedule(probe.compilation().ir(), seed++, 300);

    Tracer::global().disable();
    const auto off = native::diff::run_interp(spec.source, spec.key, sched);
    ASSERT_TRUE(off.ok) << spec.key << ": " << off.error;

    obs::TracerConfig cfg;
    cfg.sample_every = 1;
    Tracer::global().enable(cfg);
    const auto on = native::diff::run_interp(spec.source, spec.key, sched);
    Tracer::global().disable();
    ASSERT_TRUE(on.ok) << spec.key << ": " << on.error;

    EXPECT_EQ(native::diff::compare(probe.compilation().ir(), off, on), "")
        << spec.key;
    EXPECT_GT(Tracer::global().recorded(), 0u) << spec.key;
    Tracer::global().clear();
  }
}

// ---------------------------------------------------------------------------
// Concurrency (ctest -L concurrency; raced under TSan by the tsan preset)
// ---------------------------------------------------------------------------

// Histogram and counter updates from a worker pool must be lock-free-correct:
// no lost updates, no torn reads.
TEST(ObsConcurrency, LockFreeUpdatesFromWorkerPool) {
  Registry reg;
  Counter& c = reg.counter("race_total");
  Histogram& h = reg.histogram("race_ns");
  constexpr std::size_t kIters = 64;
  constexpr std::uint64_t kPerIter = 1000;
  WorkerPool pool(8);
  pool.run(kIters, [&](std::size_t i) {
    for (std::uint64_t v = 0; v < kPerIter; ++v) {
      c.add();
      h.observe(i * kPerIter + v);
    }
  });
  EXPECT_EQ(c.value(), kIters * kPerIter);
  EXPECT_EQ(h.count(), kIters * kPerIter);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), kIters * kPerIter - 1);
}

// The tracer's enable/disable/clear/export surface races worker threads that
// are recording: every combination must be safe (TSan-clean) and the export
// must always be parseable.
TEST(ObsConcurrency, EnableDisableExportUnderConcurrentRecording) {
  TracerGuard guard;
  Tracer& t = Tracer::global();
  obs::TracerConfig cfg;
  cfg.ring_capacity = 256;
  t.enable(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (std::int64_t i = 1; i <= 8; ++i) {
    recorders.emplace_back([&, i] {
      while (!stop.load(std::memory_order_acquire)) {
        obs::ScopedSpan span("race", "worker");
        span.arg("i", i);
        t.mark("race", "tick", "i", i);
      }
    });
  }
  // This thread is the control thread: toggle, export, clear.
  for (int round = 0; round < 50; ++round) {
    t.disable();
    const std::string js = t.chrome_json();
    EXPECT_EQ(js.find("{\"traceEvents\": ["), 0u);
    t.enable(cfg);
    if (round % 10 == 9) t.clear();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : recorders) th.join();
  t.disable();
  // Whatever survived the final clear must still export cleanly.
  const std::string js = t.chrome_json();
  EXPECT_NE(js.find("\"displayTimeUnit\""), std::string::npos);
}

// The interpreter's per-runtime trace hook attaches and detaches while
// several sweeps run at once on other threads; hooks may themselves call
// into the global tracer.
TEST(ObsConcurrency, TraceHookAttachDetachUnderConcurrentSweeps) {
  TracerGuard guard;
  obs::TracerConfig cfg;
  cfg.sample_every = 2;
  Tracer::global().enable(cfg);
  std::atomic<std::uint64_t> hook_calls{0};

  const auto& specs = apps::all_apps();
  const std::size_t n = std::min<std::size_t>(specs.size(), 6);
  // One thread per lane, so the sweep lanes run concurrently with each other
  // and with the interp lanes.
  const auto lane = [&](std::size_t i) {
    const apps::AppSpec& spec = specs[i];
    if (i % 2 == 0) {
      // Sweep lane: layout + emission of every variant while other lanes
      // trace through the interpreter.
      const SweepEngine engine(&test_registry());
      SweepOptions opts;
      opts.variants = *parse_sweep_grid("stages=8,12");
      opts.backends = {"p4"};
      opts.program_name = spec.key;
      const SweepReport report = engine.run(spec.source, opts);
      EXPECT_TRUE(report.ok) << spec.key;
      return;
    }
    // Interp lane: attach a hook, run half the schedule, detach, finish.
    interp::TestbedConfig tcfg;
    tcfg.program_name = spec.key;
    tcfg.switch_ids = {1};
    interp::Testbed tb(spec.source, tcfg);
    ASSERT_TRUE(tb.ok()) << spec.key << ": " << tb.diagnostics();
    const auto sched =
        native::diff::make_schedule(tb.compilation().ir(), i + 1, 100);
    interp::Runtime& rt = tb.node(1);
    for (const auto& e : sched.entries) {
      tb.sim().after(e.t, [&rt, &e] { rt.inject(e.event, e.args); });
    }
    rt.set_trace([&hook_calls](const std::string& name, const pisa::Packet&) {
      hook_calls.fetch_add(1, std::memory_order_relaxed);
      Tracer::global().mark("hook", name);
    });
    tb.sim().run_until(sched.horizon / 2);
    rt.set_trace(nullptr);  // detach mid-run
    tb.sim().run_until(sched.horizon);
  };
  std::vector<std::thread> lanes;
  for (std::size_t i = 0; i < n; ++i) lanes.emplace_back(lane, i);
  for (auto& th : lanes) th.join();
  Tracer::global().disable();
  EXPECT_GT(hook_calls.load(), 0u);
  // The hooks recorded through the global tracer from several threads; the
  // merged export must still be one well-formed document.
  const std::string js = Tracer::global().chrome_json();
  EXPECT_EQ(js.find("{\"traceEvents\": ["), 0u);
}

}  // namespace
}  // namespace lucid
