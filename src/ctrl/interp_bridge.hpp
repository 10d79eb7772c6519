// DataPlane adapter over the interpreter Runtime, plus the convenience
// bundle (`RuntimeControl`) that wires a ControlPlane to a Testbed node in
// one line. The register access and the event check are RegisterDataPlane's
// (ctrl/control_plane.hpp), shared with the native fleet's adapter
// (ctrl/native_bridge.hpp); this adapter adds only the injection path.
#pragma once

#include <string>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "interp/runtime.hpp"

namespace lucid::ctrl {

/// Drives the Runtime's register file; control events enter through its
/// switch-CPU path (Runtime::inject_control).
class InterpDataPlane final : public RegisterDataPlane {
 public:
  explicit InterpDataPlane(interp::Runtime& rt)
      : RegisterDataPlane(rt.compilation().ir(), {&rt.registers()}),
        rt_(rt) {}

  bool inject_event(const std::string& event, std::vector<Value> args,
                    sim::Time delay_ns) override {
    return rt_.inject_control(event, std::move(args), delay_ns);
  }

 private:
  interp::Runtime& rt_;
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
