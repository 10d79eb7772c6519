// Native code generation: renders the laid-out pipeline as self-contained
// C++ that executes packets with the interpreter's exact semantics, but as
// straight-line code — one extern "C" function per event handler holding
// its tables in pipeline order. No AST walking. The module text is a
// prelude plus one *unit* per handled event; the JIT (src/native/jit.hpp)
// compiles and caches it unit by unit, so an edit to one handler recompiles
// only that handler.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/driver.hpp"

namespace lucid::native {

struct EmittedModule {
  std::string text;   // prelude + one unit per handled event
  int gen_sites = 0;  // generate tables over all handlers
  int stages = 0;     // pipeline stages the tables were laid out in
  int loc = 0;        // lines emitted
};

/// Emits the module source for a compilation whose Layout stage succeeded.
/// Pure rendering: feasibility/limit checks are the backend's job
/// (src/native/backend.cpp).
[[nodiscard]] EmittedModule emit_source(const Compilation& comp,
                                        std::string_view program_name);

/// One handled event's slice of a module's text.
struct ModuleUnit {
  int event_id = -1;      // -1: the unit's header line is malformed
  int gen_sites = 0;      // max GenOut records one packet of the event writes
  std::string_view text;  // from its marker line up to the next unit
};

/// A module's text cut at its unit marker lines. The prelude followed by any
/// subset of the units is a valid translation unit.
struct ModuleUnits {
  std::string_view prelude;  // everything before the first unit
  std::vector<ModuleUnit> units;
};

/// Splits emitted module text (views into `text`). Text without a marker
/// line is all prelude.
[[nodiscard]] ModuleUnits split_units(std::string_view text);

}  // namespace lucid::native
