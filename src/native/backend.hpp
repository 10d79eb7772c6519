// Backend adapter for the native execution engine: "native" in the backend
// registry. emit() renders the generated C++ module (the artifact text) and
// JIT-compiles it as a smoke test, reporting codegen and compile metrics —
// actually *running* the program goes through native::Replica or
// ReplicaFleet (src/native/engine.hpp, src/native/fleet.hpp).
#pragma once

#include "core/driver.hpp"

namespace lucid::native {

/// Registers the "native" backend; false on name collision.
bool register_backend(BackendRegistry& registry);

}  // namespace lucid::native
