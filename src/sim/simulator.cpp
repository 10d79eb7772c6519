#include "sim/simulator.hpp"

#include <utility>

namespace lucid::sim {

void Simulator::push(Time t, Callback cb, bool daemon) {
  if (t < now_) t = now_;
  if (!daemon) ++live_;
  queue_.push(Entry{t, seq_++, daemon, std::move(cb)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the callback must be moved out via
  // a copy of the entry before pop.
  Entry e = queue_.top();
  queue_.pop();
  if (!e.daemon) --live_;
  now_ = e.t;
  e.cb();
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.top().t <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

bool Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; live_ + held_ > 0; ++i) {
    if (i == max_events) return false;
    if (!step()) break;
  }
  return true;
}

}  // namespace lucid::sim
