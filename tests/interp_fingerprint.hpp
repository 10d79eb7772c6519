// The behavioural fingerprint the front-end reuse suites (test_incremental,
// test_incremental_parse, test_sweep) compare a reused compilation against a
// cold one with: a deterministic interpreter run, reduced to a string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "interp/runtime.hpp"
#include "pisa/switch.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace lucid {

/// Builds a fresh simulated switch for `comp`, injects three rounds of
/// deterministic arguments per handled event, runs 5 ms, and fingerprints
/// the observable state: every cell of the register file, in IR declaration
/// order, plus the execution/generation counters.
inline std::string interp_fingerprint(const ConstCompilationPtr& comp) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler node(sw, {});
  interp::Runtime runtime(comp, node);

  int salt = 1;
  for (const ir::EventInfo& ev : comp->ir().events) {
    if (!ev.has_handler) continue;
    for (int round = 0; round < 3; ++round) {
      std::vector<interp::Value> args;
      args.reserve(ev.params.size());
      for (std::size_t p = 0; p < ev.params.size(); ++p) {
        args.push_back((salt * 37 + static_cast<int>(p) * 11 + round) % 251);
      }
      runtime.inject(ev.name, std::move(args));
      ++salt;
    }
  }
  simulator.run_until(5 * sim::kMs);

  std::string fp;
  for (const pisa::RegisterArray& ra : runtime.registers()) {
    fp += ra.name() + ":";
    for (const std::int64_t cell : ra.cells()) fp += std::to_string(cell) + ",";
    fp += ";";
  }
  for (const auto& [ev, n] : runtime.stats().executions) {
    fp += "x " + ev + "=" + std::to_string(n) + ";";
  }
  for (const auto& [ev, n] : runtime.stats().generated) {
    fp += "g " + ev + "=" + std::to_string(n) + ";";
  }
  return fp;
}

}  // namespace lucid
