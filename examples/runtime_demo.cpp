// Runtime demo: deploy a compiled Lucid program on the runtime control plane
// and on the sharded native data path, and print what each one did.
//
//   $ ./example_runtime_demo examples/rate_meter.lucid
//
// Control plane: deploy on one simulated switch, queue one batch of register
// installs per declared array, let the periodic control tick apply them at
// scheduler boundaries (no traffic is running), and print the install/apply
// statistics plus the metrics snapshot.
//
// Native engine: JIT-compile the program, shard a synthetic burst schedule
// across min(4, hardware threads) Replica shards by the stable flow hash,
// run it to the horizon, and print per-shard and merged statistics.
//
// Exit status: 0 when every batch applied and the native run executed
// packets, 1 on a read/compile error or a failed run, 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "ctrl/interp_bridge.hpp"
#include "interp/testbed.hpp"
#include "native/differential.hpp"
#include "native/fleet.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"

namespace {

bool control_plane_demo(const std::string& path, const std::string& source) {
  lucid::interp::TestbedConfig tb_cfg;
  tb_cfg.program_name = path;
  lucid::interp::Testbed tb(source, tb_cfg);
  if (!tb.ok()) {
    std::cerr << tb.diagnostics();
    return false;
  }
  lucid::ctrl::RuntimeControl rc(tb.node(1));
  const auto& arrays = tb.compilation().ir().arrays;
  if (arrays.empty()) {
    std::cerr << path << " declares no arrays to install into\n";
    return false;
  }
  std::cout << path << ": control-plane demo on 1 switch\n";
  for (const auto& a : arrays) {
    lucid::ctrl::UpdateBatch batch;
    const std::int64_t n = std::min<std::int64_t>(a.size, 256);
    for (std::int64_t i = 0; i < n; ++i) {
      batch.writes.push_back(lucid::ctrl::RegWrite{a.name, i, i});
    }
    batch.reads.push_back(lucid::ctrl::RegRead{a.name, 0});
    rc.plane().submit(std::move(batch));
    std::cout << "  queued batch: " << n << " installs into '" << a.name
              << "' (Array<<" << a.width << ">>(" << a.size << "))\n";
  }
  const std::size_t queued = rc.plane().pending();
  tb.settle(lucid::sim::kMs);
  const lucid::ctrl::ControlPlaneStats s = rc.plane().snapshot();
  std::cout << "  queue depth       : " << queued << " -> " << s.queue_depth
            << "\n"
            << "  batches applied   : " << s.batches_applied << "\n"
            << "  registers written : " << s.writes_applied << "\n"
            << "  reads served      : " << s.reads_served << "\n"
            << "  apply points      : " << s.apply_points << "\n"
            << "  apply latency     : mean " << s.apply_latency_mean_ns
            << " ns, max " << s.apply_latency_max_ns << " ns\n"
            << "  update path busy  : " << s.update_path_busy_ns << " ns ("
            << static_cast<long long>(s.modeled_installs_per_sec)
            << " installs/s modeled)\n";
  // The same run seen through the shared observability layer: the stats
  // above come from the plane's own samples, these aggregates are what
  // lucidc --metrics-out would export.
  std::cout << "  metrics snapshot (Prometheus text format):\n"
            << lucid::indent(lucid::obs::Registry::global().prometheus(), 4);
  return s.batches_applied == arrays.size() && s.queue_depth == 0;
}

bool native_demo(const std::string& path, const std::string& source) {
  lucid::interp::TestbedConfig tb_cfg;
  tb_cfg.program_name = path;
  lucid::interp::Testbed tb(source, tb_cfg);
  if (!tb.ok()) {
    std::cerr << tb.diagnostics();
    return false;
  }
  std::string err;
  const auto prog = lucid::native::Program::build(tb.compilation_ptr(), &err);
  if (prog == nullptr) {
    std::cerr << path << ": native build failed: " << err << "\n";
    return false;
  }
  lucid::native::FleetConfig fcfg;
  fcfg.shards = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  lucid::native::ReplicaFleet fleet(prog, fcfg);
  const lucid::native::diff::Schedule sched =
      lucid::native::diff::make_burst_schedule(prog->ir(), 7, 200, 32);
  for (const auto& e : sched.entries) {
    fleet.schedule_inject(e.t, e.event, e.args);
  }
  const auto t0 = std::chrono::steady_clock::now();
  fleet.run_until(sched.horizon);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto merged = fleet.merged_stats();
  const auto runs = fleet.merged_run_stats();
  std::cout << path << ": native demo, " << fleet.shards() << " shard(s)\n";
  for (int s = 0; s < fleet.shards(); ++s) {
    std::cout << "  shard " << s << "          : "
              << fleet.shard(static_cast<std::size_t>(s)).stats().executed
              << " packets executed\n";
  }
  std::cout << "  injections       : " << sched.entries.size() << "\n"
            << "  executed (merged): " << merged.executed << "\n"
            << "  handler runs     : " << runs.total_executions << " ("
            << merged.recirculations << " recirculations)\n"
            << "  event-loop rate  : "
            << static_cast<long long>(
                   wall_s > 0 ? static_cast<double>(merged.executed) / wall_s
                              : 0.0)
            << " packets/s\n";
  return merged.executed > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: example_runtime_demo FILE.lucid\n";
    return 2;
  }
  const std::string path = argv[1];
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read '" << path << "'\n";
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string source = ss.str();

  const bool ctrl_ok = control_plane_demo(path, source);
  const bool native_ok = native_demo(path, source);
  return ctrl_ok && native_ok ? 0 : 1;
}
