// The "interp" driver backend: binds a compilation to the interpreter.
//
// Emission produces a binding summary (events, handlers, arrays, memops)
// after validating that every array is instantiable and every event fits
// the event record (check_arity) — the preconditions interp::Runtime
// relies on. The
// artifact is the proof that `interp::Runtime(comp, scheduler)` will bind;
// actual execution needs a simulator/switch, which Testbed wires up.
#pragma once

#include "core/driver.hpp"

namespace lucid::interp {

/// Registers the "interp" backend with `registry`; false if already present.
bool register_backend(BackendRegistry& registry);

}  // namespace lucid::interp
