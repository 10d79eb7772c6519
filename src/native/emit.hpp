// Native code generation: renders the laid-out pipeline as self-contained
// C++ that executes packets with the interpreter's exact semantics, but as
// straight-line code — one function per event handler holding its tables in
// pipeline order, picked per packet by one switch on the event id. No AST
// walking. The JIT (src/native/jit.hpp) compiles the result into the
// process.
#pragma once

#include <string>
#include <string_view>

#include "core/driver.hpp"

namespace lucid::native {

struct EmittedModule {
  std::string text;   // the generated translation unit
  int gen_sites = 0;  // generate tables == max GenOut records per packet
  int stages = 0;     // pipeline stages the tables were laid out in
  int loc = 0;        // lines emitted
};

/// Emits the module source for a compilation whose Layout stage succeeded.
/// Pure rendering: feasibility/limit checks are the backend's job
/// (src/native/backend.cpp).
[[nodiscard]] EmittedModule emit_source(const Compilation& comp,
                                        std::string_view program_name);

}  // namespace lucid::native
