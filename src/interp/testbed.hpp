// Testbed-in-a-box: compiles one Lucid program and deploys it on a set of
// simulated switches joined by a network fabric — the standard harness for
// integration tests, examples, and the timing benches.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/runtime.hpp"
#include "net/network.hpp"

namespace lucid::interp {

struct TestbedConfig {
  /// Name stamped on emitted artifacts (DriverOptions::program_name).
  std::string program_name = "program";
  std::vector<int> switch_ids = {1};
  sched::SchedulerConfig sched;
  pisa::SwitchConfig switch_base;  // id is overwritten per switch
  /// Full mesh with this per-hop latency unless links are added manually.
  sim::Time link_latency_ns = sim::kUs;
  bool full_mesh = true;
};

class Testbed {
 public:
  /// Compiles `source` through the staged CompilerDriver (aborting the test
  /// on failure is the caller's job: check `ok()`), then instantiates one
  /// switch + scheduler + runtime per id and wires the fabric. A program
  /// failing check_arity gets its diagnostic and no switches.
  Testbed(const std::string& source, TestbedConfig config = {});

  /// The program compiled and the switches are bound.
  [[nodiscard]] bool ok() const { return bound_; }
  [[nodiscard]] std::string diagnostics() const {
    return program_ != nullptr ? program_->diags().render() : std::string();
  }
  /// The shared compilation artifact. Runtimes co-own it, so it outlives
  /// the Testbed if a Runtime (or the caller) keeps the pointer.
  [[nodiscard]] const Compilation& compilation() const { return *program_; }
  [[nodiscard]] CompilationPtr compilation_ptr() const { return program_; }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] Runtime& node(int id);
  [[nodiscard]] pisa::Switch& switch_at(int id);
  [[nodiscard]] sched::EventScheduler& sched_at(int id);

  /// Convenience: inject at a node and run for `horizon` of virtual time
  /// (the PFC pause stream ticks forever, so "run to quiescence" never
  /// returns; a bounded horizon is the natural way to settle a testbed).
  void inject_and_run(int id, const std::string& event,
                      std::vector<Value> args,
                      sim::Time horizon = 10 * sim::kMs);

  /// Runs the fabric for `horizon` more virtual time.
  void settle(sim::Time horizon = 10 * sim::kMs) {
    sim_.run_until(sim_.now() + horizon);
  }

 private:
  CompilationPtr program_;
  bool bound_ = false;
  sim::Simulator sim_;
  net::Network network_;
  std::map<int, std::unique_ptr<pisa::Switch>> switches_;
  std::map<int, std::unique_ptr<sched::EventScheduler>> scheds_;
  std::map<int, std::unique_ptr<Runtime>> runtimes_;
};

}  // namespace lucid::interp
