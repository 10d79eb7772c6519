// In-process JIT for native pipeline modules, incremental at handler
// granularity. A module's text is a prelude plus one unit per handled event
// (src/native/emit.hpp); the JIT keeps two process-wide caches:
//
//   - modules, by hash of the whole text: a hit returns the same Module;
//   - units, by hash of prelude + unit text: a module load compiles only
//     the units no earlier load has compiled, all in one translation unit
//     (prelude + those units) and one compiler run, and reuses the rest.
//     A one-handler edit therefore compiles one handler.
//
// A compile writes the translation unit into a fresh private directory
// under $TMPDIR, spawns the system compiler on it (posix_spawnp, no shell),
// dlopens the result, checks its ABI version (src/native/abi.hpp), resolves
// each unit's lucid_event_<id> entry, and removes the directory. Several
// threads may load at once: the cache lock is never held across a compile,
// and a unit another load is compiling is waited for, not compiled twice.
//
// A Module is a dense event-id -> entry table over the objects its units
// live in; Module::run_batch_raw loops over a batch on the host side. Modules
// and the objects under them live for the process: nothing is dlclosed or
// freed, so a Module address is never reused by a later load (bench_e2e
// relies on that to tell cold loads from cached ones).
//
// Compiler resolution order: $LUCID_NATIVE_CXX, then the compiler that built
// this binary (LUCID_NATIVE_CXX_DEFAULT, baked in by CMake), then "c++"; the
// value names one executable, found on PATH when it has no slash. Compile
// time, module cache hits and misses, units compiled and reused, and
// failures are published to obs::Registry as lucid_native_jit_*.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "native/abi.hpp"

namespace lucid::native {

/// A loaded module: one entry point per handled event.
class Module {
 public:
  /// Compiles (the units not yet compiled) and loads `source`; returns
  /// nullptr and fills `error` on any failure (compiler missing, compile
  /// error, dlopen/dlsym failure, ABI version mismatch, malformed unit
  /// header). A whole-text cache hit returns the previously loaded module.
  static std::shared_ptr<Module> load(const std::string& source,
                                      std::string* error);

  /// GenOut records one packet can write: the batch output stride.
  [[nodiscard]] std::int32_t max_gens() const { return max_gens_; }

  /// The host batch loop with no instrumentation at all: packets in order,
  /// each straight through its handler's entry; packet i's records at
  /// out + i * max(max_gens(), 1) and its generate count in gen_counts[i]
  /// (0 for an event without a handler). The Replica drain calls it, and
  /// native::measure_raw_batch_pps times it.
  void run_batch_raw(std::int64_t* const* arrays, const PacketIn* in,
                     std::int32_t n, GenOut* out,
                     std::int32_t* gen_counts) const;

  /// Milliseconds in the external compiler for this load's new units (0
  /// when every unit was already compiled).
  [[nodiscard]] double compile_ms() const { return compile_ms_; }

 private:
  Module() = default;

  std::vector<EventFn> entries_;  // by event id; null = no handler
  std::int32_t max_gens_ = 0;
  double compile_ms_ = 0.0;
};

}  // namespace lucid::native
