// Runtime control plane: register-install throughput (batched vs unbatched)
// and packet-path disturbance under install churn.
//
// Three phases, each a hard assertion the CI perf-smoke job enforces:
//
//   1. Unbatched baseline: one register write per update message. The
//      modeled update path pays batch_overhead_ns per install.
//   2. Batched: 4096 writes per message amortize the overhead. The modeled
//      installs/sec must beat the unbatched baseline by >= 5x (it lands
//      around 140x with the default cost model). Wall-clock rates are
//      reported but only warned on — CI machines are too noisy for a hard
//      wall-clock ratio.
//   3. Churn: steady probe traffic with the control plane installing
//      ~1M entries/sec of virtual time in 1024-op batches. Applies happen
//      only at scheduler boundaries and each commit stalls the pipeline per
//      the cost model, so the p99 event latency must stay within 2x of the
//      no-churn baseline.
//
// The run as a whole must sustain >= 1M register installs, and the interp
// hot path must keep per-event inject+execute cost under a generous ceiling
// (the dense-id dispatch regression guard).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "ctrl/interp_bridge.hpp"
#include "interp/testbed.hpp"
#include "support/chrono.hpp"

namespace {

using namespace lucid;

constexpr const char* kProg =
    "global tbl = new Array<<32>>(65536);\n"
    "global cnt = new Array<<32>>(1);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "event ping(int i);\n"
    "handle ping(int i) { Array.set(cnt, 0, plus, 1); }\n";

constexpr std::size_t kTableCells = 65536;
constexpr std::size_t kUnbatchedInstalls = 100'000;
constexpr std::size_t kBatchedInstalls = 1'000'000;
constexpr std::size_t kBatchOps = 4096;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  %-52s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++failures;
}

ctrl::UpdateBatch make_batch(std::size_t start, std::size_t n) {
  ctrl::UpdateBatch b;
  b.writes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.writes.push_back(ctrl::RegWrite{
        "tbl", static_cast<std::int64_t>((start + i) % kTableCells),
        static_cast<ctrl::Value>(i)});
  }
  return b;
}

/// Installs `total` registers in batches of `per_batch` (1 == the unbatched
/// baseline) and returns the phase's stats snapshot.
ctrl::ControlPlaneStats install_phase(interp::Testbed& tb,
                                     ctrl::RuntimeControl& rc,
                                     std::size_t total,
                                     std::size_t per_batch) {
  rc.plane().reset_stats();
  std::size_t done = 0;
  while (done < total) {
    const std::size_t n = std::min(per_batch, total - done);
    rc.plane().submit(make_batch(done, n));
    done += n;
    // Keep the queue shallow: apply at the current boundary batch by batch.
    if (rc.plane().pending() >= 64) rc.plane().flush();
  }
  rc.plane().flush();
  tb.settle(sim::kUs);
  return rc.plane().snapshot();
}

double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct ChurnResult {
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t installs = 0;
};

/// Runs 25k probe events over 50 ms of virtual time; when `churn` is set,
/// the control plane concurrently installs 1024-entry batches once per
/// millisecond (~1M installs/sec of virtual time) with the pipeline
/// occupancy model on.
ChurnResult churn_phase(bool churn) {
  interp::Testbed tb(kProg);
  if (!tb.ok()) {
    std::fprintf(stderr, "bench program failed to compile:\n%s\n",
                 tb.diagnostics().c_str());
    std::exit(1);
  }
  ctrl::RuntimeControl rc(tb.node(1));

  constexpr int kEvents = 25'000;
  constexpr sim::Time kGap = 2 * sim::kUs;
  std::vector<double> latency;
  latency.reserve(kEvents);
  tb.node(1).set_trace([&](const std::string& ev, const pisa::Packet& p) {
    if (ev == "ping") {
      latency.push_back(static_cast<double>(tb.sim().now() - p.created));
    }
  });
  for (int i = 0; i < kEvents; ++i) {
    tb.sim().after(1 + i * kGap,
                   [&tb] { tb.node(1).inject("ping", {0}); });
  }
  if (churn) {
    for (int ms = 0; ms < 50; ++ms) {
      tb.sim().after(ms * sim::kMs + 7, [&rc, ms] {
        rc.plane().submit(
            make_batch(static_cast<std::size_t>(ms) * 1024, 1024));
      });
    }
  }
  tb.settle(kEvents * kGap + 10 * sim::kMs);
  rc.plane().flush();

  ChurnResult r;
  r.p50_ns = pct(latency, 0.50);
  r.p99_ns = pct(latency, 0.99);
  r.events = latency.size();
  r.installs = rc.plane().snapshot().writes_applied;
  return r;
}

/// Per-event inject+execute wall cost over 100k events — the dense-id
/// dispatch hot path. Returns ns per event.
double inject_cost_ns() {
  interp::Testbed tb(kProg);
  if (!tb.ok()) std::exit(1);
  constexpr int kWarm = 1'000;
  constexpr int kN = 100'000;
  for (int i = 0; i < kWarm; ++i) tb.node(1).inject("ping", {i});
  tb.settle();
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < kN; ++i) tb.node(1).inject("ping", {i});
  tb.settle();
  const double ms = ms_since(t0);
  if (tb.node(1).stats().total_executions <
      static_cast<std::uint64_t>(kWarm + kN)) {
    std::fprintf(stderr, "FATAL: inject-cost phase dropped events\n");
    std::exit(1);
  }
  return ms * 1e6 / kN;
}

}  // namespace

int main() {
  bench::print_header(
      "Control plane",
      "batched install throughput and packet-path disturbance");

  interp::Testbed tb(kProg);
  if (!tb.ok()) {
    std::fprintf(stderr, "bench program failed to compile:\n%s\n",
                 tb.diagnostics().c_str());
    return 1;
  }
  ctrl::RuntimeControl rc(tb.node(1));

  const ctrl::ControlPlaneStats unbatched =
      install_phase(tb, rc, kUnbatchedInstalls, 1);
  const ctrl::ControlPlaneStats batched =
      install_phase(tb, rc, kBatchedInstalls, kBatchOps);

  std::printf("install throughput (modeled update path / wall clock):\n");
  std::printf("  unbatched: %9zu installs  %12.0f /s modeled  %12.0f /s wall\n",
              kUnbatchedInstalls, unbatched.modeled_installs_per_sec,
              unbatched.wall_installs_per_sec);
  std::printf("  batched  : %9zu installs  %12.0f /s modeled  %12.0f /s wall"
              "  (%zu writes/batch)\n",
              kBatchedInstalls, batched.modeled_installs_per_sec,
              batched.wall_installs_per_sec, kBatchOps);
  const double modeled_ratio =
      batched.modeled_installs_per_sec /
      std::max(unbatched.modeled_installs_per_sec, 1.0);
  const double wall_ratio = batched.wall_installs_per_sec /
                            std::max(unbatched.wall_installs_per_sec, 1.0);
  std::printf("  batching speedup: %.1fx modeled, %.1fx wall\n",
              modeled_ratio, wall_ratio);
  if (wall_ratio < 5.0) {
    std::printf("  WARN: wall-clock batching speedup below 5x "
                "(noisy machines only warn)\n");
  }

  const ChurnResult quiet = churn_phase(false);
  const ChurnResult noisy = churn_phase(true);
  std::printf("\npacket-path disturbance (%llu probe events, 50 ms):\n",
              static_cast<unsigned long long>(quiet.events));
  std::printf("  no churn : p50 %6.0f ns   p99 %6.0f ns\n", quiet.p50_ns,
              quiet.p99_ns);
  std::printf("  churn    : p50 %6.0f ns   p99 %6.0f ns   "
              "(%llu installs during run)\n",
              noisy.p50_ns, noisy.p99_ns,
              static_cast<unsigned long long>(noisy.installs));

  const double inject_ns = inject_cost_ns();
  std::printf("\ninterp hot path: %.0f ns per inject+execute\n", inject_ns);

  const std::uint64_t total_installs =
      unbatched.writes_applied + batched.writes_applied + noisy.installs;
  std::printf("\nassertions:\n");
  check(total_installs >= 1'000'000, ">= 1M register installs across run");
  check(modeled_ratio >= 5.0, "batched modeled installs/sec >= 5x unbatched");
  check(noisy.p99_ns <= 2.0 * quiet.p99_ns,
        "p99 event latency under churn within 2x baseline");
  check(inject_ns < 10'000.0, "inject+execute under 10 us/event");

  bench::JsonWriter j;
  j.obj_open()
      .field("bench", "bench_control_plane")
      .field("total_installs", total_installs)
      .obj_open("unbatched")
      .field("installs", unbatched.writes_applied)
      .field("modeled_installs_per_sec", unbatched.modeled_installs_per_sec)
      .field("wall_installs_per_sec", unbatched.wall_installs_per_sec)
      .field("update_path_busy_ns", unbatched.update_path_busy_ns)
      .obj_close()
      .obj_open("batched")
      .field("installs", batched.writes_applied)
      .field("writes_per_batch", kBatchOps)
      .field("modeled_installs_per_sec", batched.modeled_installs_per_sec)
      .field("wall_installs_per_sec", batched.wall_installs_per_sec)
      .field("update_path_busy_ns", batched.update_path_busy_ns)
      .obj_close()
      .field("modeled_speedup", modeled_ratio)
      .field("wall_speedup", wall_ratio)
      .obj_open("churn")
      .field("events", quiet.events)
      .field("baseline_p50_ns", quiet.p50_ns)
      .field("baseline_p99_ns", quiet.p99_ns)
      .field("churn_p50_ns", noisy.p50_ns)
      .field("churn_p99_ns", noisy.p99_ns)
      .field("installs_during_run", noisy.installs)
      .obj_close()
      .field("inject_ns_per_event", inject_ns)
      .field("failures", failures)
      .obj_close();
  j.save("BENCH_control_plane.json");

  return failures == 0 ? 0 : 1;
}
