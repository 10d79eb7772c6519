// Native engine bench: the JIT-compiled execution engine (src/native) on the
// ten paper applications. Each app is JIT-compiled once; four sections run
// against that one module.
//
// 1. Speedup vs the reference interpreter. For each app, build one
//    randomized schedule (the same differential harness the test suite uses
//    — timer events seeded once, traffic round-robin with ~1 us spacing),
//    run it through both engines several times, and keep each engine's best
//    wall time. Throughput is pipeline passes per second of wall time. The
//    speedup only counts if the runs are indistinguishable, so every row
//    re-checks the differential-state contract: byte-identical register
//    state plus every shared counter. The batch column is the module's raw
//    batch loop (native::measure_raw_batch_pps) — the ceiling once the
//    event-loop bookkeeping is amortized away.
//
// 2. Observability overhead, on the path that ships: the Replica event
//    loop. One burst schedule per app through a 1-shard ReplicaFleet in
//    three modes: no per-shard instruments (raw, label_metrics=false),
//    per-shard instruments with tracing compiled in but disabled (obs-off),
//    and per-shard instruments with tracing enabled at 1/256 sampling
//    (obs-256). Throughput is pipeline passes per second of run_until wall
//    time. Modes are interleaved per rep and best-of kept, so machine drift
//    hits all three alike.
//
// 3. Scaling. A burst schedule on SFW, partitioned by a ReplicaFleet at
//    1/2/4/8 shards. SFW's merged pass count is shard-count invariant
//    (tests/test_native.cpp pins it), so the pps compare identical work.
//
// 4. Sample artifacts. A ten-app traced interpreter run (full sampling)
//    writes trace.json (Chrome trace-event JSON, loadable in Perfetto) and
//    metrics.prom (Prometheus text); CI validates both with
//    tools/validate_obs.py.
//
// Exit status is the acceptance gate — non-zero unless:
//   - every app holds the state contract and runs >= 10x the interpreter;
//   - geomean obs-off >= 0.95x raw and obs-256 >= 0.90x raw;
//   - 8 shards reach >= 4x one shard (measured only on >= 8 hardware
//     threads; below that the gate is skipped and the skip recorded);
//   - both artifacts were written from clean interpreter runs.
// Everything lands in BENCH_native.json; overhead and scaling fields sit
// under "obs" and "scaling".
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "bench/bench_common.hpp"
#include "native/differential.hpp"
#include "native/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lucid;

constexpr int kTrafficEvents = 2000;
constexpr int kReps = 3;
constexpr double kRequiredSpeedup = 10.0;
constexpr double kBatchSeconds = 0.08;  // raw batch loop, per rep
constexpr int kObsBursts = 2000;  // section 2 schedule, per app
constexpr int kObsReps = 9;
constexpr double kMaxDisabledOverhead = 0.05;  // obs-off vs raw
constexpr double kMaxSampledOverhead = 0.10;   // obs-256 vs raw
constexpr int kScaleBursts = 400;
constexpr int kBurstSize = 32;
constexpr int kScaleReps = 7;
constexpr double kRequiredScaling = 4.0;
constexpr int kScalingShards[] = {1, 2, 4, 8};
constexpr int kArtifactTraffic = 500;

struct AppRow {
  std::string key;
  std::shared_ptr<const native::Program> prog;  // null when the build failed
  bool state_identical = false;
  std::string detail;
  std::uint64_t passes = 0;  // pipeline passes executed (identical per rep)
  double interp_s = 0.0;     // best of kReps
  double native_s = 0.0;     // best of kReps
  double interp_pps = 0.0;
  double native_pps = 0.0;
  double speedup = 0.0;
  double batch_pps = 0.0;    // raw run_batch_raw, no event loop
  double compile_ms = 0.0;
  double raw_pps = 0.0;      // 1-shard fleet, no per-shard instruments
  double off_pps = 0.0;      // instruments on, tracing disabled
  double sampled_pps = 0.0;  // instruments on, 1/256 sampling
  double off_ratio = 0.0;      // obs-off / raw, median over reps
  double sampled_ratio = 0.0;  // obs-256 / raw, median over reps
};

struct ScalePoint {
  int shards = 0;
  std::uint64_t executed = 0;
  double wall_s = 0.0;
  double pps = 0.0;
};

/// Section 1: build the module, then time both engines on one schedule.
AppRow run_app(const apps::AppSpec& spec, std::uint64_t seed) {
  AppRow row;
  row.key = spec.key;

  interp::TestbedConfig probe_cfg;
  probe_cfg.program_name = spec.key;
  interp::Testbed probe(spec.source, probe_cfg);
  if (!probe.ok()) {
    row.detail = "compile failed: " + probe.diagnostics();
    return row;
  }
  const auto sched = native::diff::make_schedule(probe.compilation().ir(),
                                                 seed, kTrafficEvents);

  std::string err;
  row.prog = native::Program::build(probe.compilation_ptr(), &err);
  if (row.prog == nullptr) {
    row.detail = "native build failed: " + err;
    return row;
  }
  row.compile_ms = row.prog->module().compile_ms();

  // Both engines are deterministic, so reps only tighten the timing — the
  // state compared below is the same on every rep.
  native::diff::EngineResult iref;
  native::diff::EngineResult nref;
  for (int rep = 0; rep < kReps; ++rep) {
    auto i = native::diff::run_interp(spec.source, spec.key, sched);
    auto n = native::diff::run_native(row.prog, sched);
    if (!i.ok || !n.ok) {
      row.detail = !i.ok ? i.error : n.error;
      return row;
    }
    if (rep == 0 || i.wall_s < iref.wall_s) iref = std::move(i);
    if (rep == 0 || n.wall_s < nref.wall_s) nref = std::move(n);
  }

  row.detail = native::diff::compare(row.prog->ir(), iref, nref);
  row.state_identical = row.detail.empty();
  row.passes = iref.executed;
  row.interp_s = iref.wall_s;
  row.native_s = nref.wall_s;
  if (row.interp_s > 0) {
    row.interp_pps = static_cast<double>(row.passes) / row.interp_s;
  }
  if (row.native_s > 0) {
    row.native_pps = static_cast<double>(row.passes) / row.native_s;
    row.speedup = row.interp_s / row.native_s;
  }
  return row;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// The raw batch loop's pps (the section 1 ceiling), best of kReps.
void measure_batches(AppRow& row) {
  for (int rep = 0; rep < kReps; ++rep) {
    row.batch_pps = std::max(
        row.batch_pps, native::measure_raw_batch_pps(
                           row.prog->ir(), row.prog->module(), kBatchSeconds));
  }
}

/// Section 2: raw vs obs-off vs obs-256 on one burst schedule through a
/// 1-shard fleet.
void measure_obs(AppRow& row) {
  const auto sched = native::diff::make_burst_schedule(
      row.prog->ir(), 0x0B5E7, kObsBursts, kBurstSize);
  const auto run_pps = [&](bool label_metrics) {
    native::FleetConfig fcfg;
    fcfg.label_metrics = label_metrics;
    native::ReplicaFleet fleet(row.prog, fcfg);
    for (const auto& e : sched.entries) {
      fleet.schedule_inject(e.t, e.event, e.args);
    }
    const auto t0 = std::chrono::steady_clock::now();
    fleet.run_until(sched.horizon);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return wall > 0 ? static_cast<double>(fleet.merged_stats().executed) / wall
                    : 0.0;
  };
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.disable();
  (void)run_pps(false);  // warm the allocator and caches
  std::vector<double> off_ratios;
  std::vector<double> sampled_ratios;
  for (int rep = 0; rep < kObsReps; ++rep) {
    // One rep runs every mode once. Which mode runs first rotates, so none
    // always pays for the rep's fresh allocations; the gate compares modes
    // within a rep, so drift between reps cancels.
    double pps[3] = {};
    for (int k = 0; k < 3; ++k) {
      const int mode = (rep + k) % 3;
      if (mode == 2) {
        obs::TracerConfig cfg;
        cfg.sample_every = 256;
        tracer.enable(cfg);
      }
      pps[mode] = run_pps(mode != 0);
      tracer.disable();
    }
    row.raw_pps = std::max(row.raw_pps, pps[0]);
    row.off_pps = std::max(row.off_pps, pps[1]);
    row.sampled_pps = std::max(row.sampled_pps, pps[2]);
    if (pps[0] > 0) {
      off_ratios.push_back(pps[1] / pps[0]);
      sampled_ratios.push_back(pps[2] / pps[0]);
    }
  }
  row.off_ratio = median(off_ratios);
  row.sampled_ratio = median(sampled_ratios);
}

/// Section 3: one burst schedule, partitioned by the fleet at 1/2/4/8
/// shards, best-of-reps wall time per shard count.
std::vector<ScalePoint> run_scaling(
    const std::shared_ptr<const native::Program>& prog) {
  const auto sched = native::diff::make_burst_schedule(
      prog->ir(), 0xF1EE7, kScaleBursts, kBurstSize);
  std::vector<ScalePoint> points;
  for (const int shards : kScalingShards) {
    ScalePoint p;
    p.shards = shards;
    for (int rep = 0; rep < kScaleReps; ++rep) {
      native::FleetConfig fcfg;
      fcfg.shards = shards;
      fcfg.label_metrics = false;
      native::ReplicaFleet fleet(prog, fcfg);
      for (const auto& e : sched.entries) {
        fleet.schedule_inject(e.t, e.event, e.args);
      }
      const auto t0 = std::chrono::steady_clock::now();
      fleet.run_until(sched.horizon);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      if (rep == 0 || wall < p.wall_s) p.wall_s = wall;
      p.executed = fleet.merged_stats().executed;
    }
    if (p.wall_s > 0) p.pps = static_cast<double>(p.executed) / p.wall_s;
    points.push_back(p);
  }
  return points;
}

/// Section 4: every app through the interpreter with full tracing, then the
/// trace and metrics snapshot written next to BENCH_native.json.
bool write_sample_artifacts(const std::vector<AppRow>& rows) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  obs::TracerConfig cfg;
  cfg.sample_every = 1;
  tracer.enable(cfg);
  bool ok = true;
  std::uint64_t seed = 0x0B5EC0DE;
  for (const auto& r : rows) {
    if (r.prog == nullptr) {
      ok = false;
      continue;
    }
    const auto sched =
        native::diff::make_schedule(r.prog->ir(), seed++, kArtifactTraffic);
    if (!native::diff::run_interp(apps::app(r.key).source, r.key, sched).ok) {
      ok = false;
    }
  }
  tracer.disable();
  std::ofstream("trace.json") << tracer.chrome_json();
  std::printf("\nwrote trace.json (%llu events retained)\n",
              static_cast<unsigned long long>(tracer.retained()));
  std::ofstream("metrics.prom") << obs::Registry::global().prometheus();
  std::printf("wrote metrics.prom\n");
  return ok;
}

/// Geometric mean of a per-app metric (a member or accessor of AppRow),
/// over the apps where it is positive.
template <typename Metric>
double geomean(const std::vector<AppRow>& rows, Metric m) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : rows) {
    const double v = std::invoke(m, r);
    if (v > 0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  bench::print_header(
      "Native engine",
      "JIT-compiled pipeline vs reference interpreter, ten paper apps "
      "(differential-state contract enforced per row)");

  std::vector<AppRow> rows;
  std::uint64_t seed = 0xBE11C0DE;
  for (const auto& spec : apps::all_apps()) {
    rows.push_back(run_app(spec, seed++));
    if (rows.back().prog != nullptr) {
      measure_batches(rows.back());
      measure_obs(rows.back());
    }
  }

  // -- section 1: speedup ----------------------------------------------------
  std::printf("  %-8s | %9s | %11s | %11s | %7s | %12s | %5s\n", "app",
              "passes", "interp pps", "native pps", "speedup", "batch pps",
              "state");
  bench::print_rule();
  bool speedup_ok = true;
  double min_speedup = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    std::printf("  %-8s | %9llu | %11.0f | %11.0f | %6.1fx | %12.0f | %s\n",
                r.key.c_str(), static_cast<unsigned long long>(r.passes),
                r.interp_pps, r.native_pps, r.speedup, r.batch_pps,
                r.state_identical ? "ok" : "DIFF");
    if (!r.state_identical) {
      std::printf("    !! %s\n", r.detail.c_str());
      speedup_ok = false;
    }
    if (r.speedup < kRequiredSpeedup) speedup_ok = false;
    if (i == 0 || r.speedup < min_speedup) min_speedup = r.speedup;
  }
  const double speedup_geomean = geomean(rows, &AppRow::speedup);
  bench::print_rule();
  std::printf("  min speedup %.1fx, geomean %.1fx (gate: every app >= "
              "%.0fx with byte-identical state)\n",
              min_speedup, speedup_geomean, kRequiredSpeedup);

  // -- section 2: observability overhead -------------------------------------
  std::printf("\n  replica loop, 1-shard fleet, %d bursts of %d\n", kObsBursts,
              kBurstSize);
  std::printf("  %-8s | %12s | %12s | %12s | %8s | %8s\n", "app", "raw pps",
              "obs-off pps", "obs-256 pps", "off/raw", "256/raw");
  bench::print_rule();
  for (const auto& r : rows) {
    std::printf("  %-8s | %12.0f | %12.0f | %12.0f | %8.3f | %8.3f\n",
                r.key.c_str(), r.raw_pps, r.off_pps, r.sampled_pps,
                r.off_ratio, r.sampled_ratio);
  }
  const double off_geomean = geomean(rows, &AppRow::off_ratio);
  const double sampled_geomean = geomean(rows, &AppRow::sampled_ratio);
  const bool obs_ok = off_geomean >= 1.0 - kMaxDisabledOverhead &&
                      sampled_geomean >= 1.0 - kMaxSampledOverhead;
  bench::print_rule();
  std::printf("  geomean obs-off/raw %.3f (gate >= %.2f), obs-256/raw %.3f "
              "(gate >= %.2f)\n",
              off_geomean, 1.0 - kMaxDisabledOverhead, sampled_geomean,
              1.0 - kMaxSampledOverhead);

  // -- section 3: scaling ----------------------------------------------------
  const AppRow& scaled = *std::find_if(
      rows.begin(), rows.end(), [](const AppRow& r) { return r.key == "SFW"; });
  std::vector<ScalePoint> scale;
  double scaling8 = 0.0;
  if (scaled.prog != nullptr) {
    scale = run_scaling(scaled.prog);
    if (scale.front().pps > 0) scaling8 = scale.back().pps / scale.front().pps;
  }
  const bool scaling_measurable = hw >= 8;
  const bool scaling_ok = !scaling_measurable || scaling8 >= kRequiredScaling;
  std::printf("\n  scaling sweep (%s, %u hw threads):", scaled.key.c_str(),
              hw);
  for (const auto& p : scale) {
    std::printf("  %d-shard %.0f pps", p.shards, p.pps);
  }
  std::printf("\n  8-shard scaling %.2fx (gate >= %.1fx%s)\n", scaling8,
              kRequiredScaling,
              scaling_measurable ? "" : ", SKIPPED: < 8 hw threads");

  // -- section 4: artifacts --------------------------------------------------
  const bool artifacts_ok = write_sample_artifacts(rows);
  const bool all_ok = speedup_ok && obs_ok && scaling_ok && artifacts_ok;

  bench::JsonWriter j;
  j.obj_open()
      .field("bench", "bench_native")
      .field("traffic_events", kTrafficEvents)
      .field("reps", kReps)
      .field("required_speedup", kRequiredSpeedup);
  j.arr_open("apps");
  for (const auto& r : rows) {
    j.obj_open()
        .field("key", r.key)
        .field("state_identical", r.state_identical)
        .field("passes", r.passes)
        .field("interp_s", r.interp_s)
        .field("native_s", r.native_s)
        .field("interp_pps", r.interp_pps)
        .field("native_pps", r.native_pps)
        .field("speedup", r.speedup)
        .field("batch_pps", r.batch_pps)
        .field("compile_ms", r.compile_ms)
        .obj_close();
  }
  j.arr_close();
  j.field("min_speedup", min_speedup)
      .field("geomean_speedup", speedup_geomean);
  j.obj_open("obs")
      .field("subject", "replica_loop")
      .field("bursts", kObsBursts)
      .field("burst_size", kBurstSize)
      .field("reps", kObsReps)
      .field("max_disabled_overhead", kMaxDisabledOverhead)
      .field("max_sampled_overhead", kMaxSampledOverhead);
  j.arr_open("apps");
  for (const auto& r : rows) {
    j.obj_open()
        .field("key", r.key)
        .field("raw_pps", r.raw_pps)
        .field("obs_off_pps", r.off_pps)
        .field("obs_sampled_pps", r.sampled_pps)
        .field("off_ratio", r.off_ratio)
        .field("sampled_ratio", r.sampled_ratio)
        .obj_close();
  }
  j.arr_close()
      .field("off_geomean", off_geomean)
      .field("sampled_geomean", sampled_geomean)
      .field("trace_events_retained", obs::Tracer::global().retained())
      .field("gate_passed", obs_ok && artifacts_ok)
      .obj_close();
  j.obj_open("scaling")
      .field("app", scaled.key)
      .field("bursts", kScaleBursts)
      .field("burst_size", kBurstSize)
      .field("reps", kScaleReps)
      .field("hw_threads", static_cast<std::uint64_t>(hw))
      .field("required_scaling", kRequiredScaling);
  j.arr_open("points");
  for (const auto& p : scale) {
    j.obj_open()
        .field("shards", p.shards)
        .field("executed", p.executed)
        .field("wall_s", p.wall_s)
        .field("pps", p.pps)
        .obj_close();
  }
  j.arr_close()
      .field("scaling_8_shard", scaling8)
      .field("gate_skipped", !scaling_measurable)
      .field("gate_passed", scaling_ok)
      .obj_close();
  j.field("gate_passed", all_ok).obj_close();
  j.save("BENCH_native.json");

  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: native engine gate (speedup/state=%d obs=%d "
                 "scaling=%d artifacts=%d)\n",
                 speedup_ok, obs_ok, scaling_ok, artifacts_ok);
    return 1;
  }
  return 0;
}
