// DataPlane adapter over the interpreter Runtime, plus the convenience
// bundle (`RuntimeControl`) that wires a ControlPlane to a Testbed node in
// one line. The native replica fleet's adapter (FleetDataPlane) lives in
// native_bridge.hpp and reuses ControlPlane unchanged.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "interp/runtime.hpp"

namespace lucid::ctrl {

/// Drives interpreter register state. Array lookups resolve through the
/// Runtime's aliased-array resolution (between handler executions the alias
/// map is empty, so names mean exactly the declared globals) and are
/// memoized — register arrays are created once at Runtime construction and
/// never move.
class InterpDataPlane final : public DataPlane {
 public:
  explicit InterpDataPlane(interp::Runtime& rt) : rt_(rt) {}

  [[nodiscard]] bool has_array(const std::string& name) const override {
    return lookup(name) != nullptr;
  }
  [[nodiscard]] std::int64_t array_size(
      const std::string& name) const override {
    const pisa::RegisterArray* a = lookup(name);
    return a == nullptr ? -1 : a->size();
  }
  bool write(const std::string& array, std::int64_t index,
             Value value) override {
    pisa::RegisterArray* a = lookup(array);
    if (a == nullptr) return false;
    a->set(index, value);
    return true;
  }
  [[nodiscard]] Value read(const std::string& array,
                           std::int64_t index) const override {
    const pisa::RegisterArray* a = lookup(array);
    return a == nullptr ? 0 : a->get(index);
  }
  [[nodiscard]] bool can_inject(const std::string& event,
                                std::size_t arity) const override {
    const frontend::EventDecl* ev = rt_.find_event(event);
    return ev != nullptr && ev->params.size() == arity;
  }
  bool inject_event(const std::string& event, std::vector<Value> args,
                    sim::Time delay_ns) override {
    return rt_.inject_control(event, std::move(args), delay_ns);
  }

 private:
  [[nodiscard]] pisa::RegisterArray* lookup(const std::string& name) const {
    const auto it = cache_.find(name);
    if (it != cache_.end()) return it->second;
    pisa::RegisterArray* a = rt_.resolve_array(name);
    if (a != nullptr) cache_.emplace(name, a);
    return a;
  }

  interp::Runtime& rt_;
  mutable std::unordered_map<std::string, pisa::RegisterArray*> cache_;
};

/// Owns the adapter and the plane for the common single-node case:
///
///   ctrl::RuntimeControl rc(tb.node(1));
///   rc.plane().submit(batch);
class RuntimeControl {
 public:
  explicit RuntimeControl(interp::Runtime& rt, ControlPlaneConfig cfg = {})
      : dp_(rt), plane_(dp_, rt.node(), cfg) {}

  [[nodiscard]] ControlPlane& plane() { return plane_; }
  [[nodiscard]] InterpDataPlane& dataplane() { return dp_; }

 private:
  InterpDataPlane dp_;
  ControlPlane plane_;
};

}  // namespace lucid::ctrl
