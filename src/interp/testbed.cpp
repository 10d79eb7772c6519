#include "interp/testbed.hpp"

namespace lucid::interp {

Testbed::Testbed(const std::string& source, TestbedConfig config)
    : network_(sim_) {
  // The driver is deliberately scoped to this constructor: the Compilation
  // is ref-counted, so the runtimes keep the artifacts alive on their own.
  DriverOptions opts;
  opts.program_name = config.program_name;
  const CompilerDriver driver(std::move(opts));
  program_ = driver.run(source, Stage::Layout);
  bound_ = program_ != nullptr && program_->ok() &&
           program_->succeeded(Stage::Layout) && check_arity(*program_);
  if (!bound_) return;

  for (const int id : config.switch_ids) {
    pisa::SwitchConfig sc = config.switch_base;
    sc.id = id;
    switches_[id] = std::make_unique<pisa::Switch>(sim_, sc);
    scheds_[id] =
        std::make_unique<sched::EventScheduler>(*switches_[id], config.sched);
    runtimes_[id] = std::make_unique<Runtime>(program_, *scheds_[id]);
    network_.add_node(*scheds_[id]);
  }
  if (config.full_mesh) {
    for (std::size_t i = 0; i < config.switch_ids.size(); ++i) {
      for (std::size_t j = i + 1; j < config.switch_ids.size(); ++j) {
        network_.connect(config.switch_ids[i], config.switch_ids[j],
                         config.link_latency_ns);
      }
    }
  }
}

Runtime& Testbed::node(int id) { return *runtimes_.at(id); }
pisa::Switch& Testbed::switch_at(int id) { return *switches_.at(id); }
sched::EventScheduler& Testbed::sched_at(int id) { return *scheds_.at(id); }

void Testbed::inject_and_run(int id, const std::string& event,
                             std::vector<Value> args, sim::Time horizon) {
  node(id).inject(event, std::move(args));
  settle(horizon);
}

}  // namespace lucid::interp
