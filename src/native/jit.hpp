// In-process JIT for native pipeline modules: writes the emitted C++ to a
// temp file, shells out to the system compiler, dlopens the result, and
// resolves the four ABI entry points (src/native/abi.hpp).
//
// Compiler resolution order: $LUCID_NATIVE_CXX, then the compiler that built
// this binary (LUCID_NATIVE_CXX_DEFAULT, baked in by CMake), then "c++".
// Modules are cached process-wide by source hash, so repeated builds of the
// same program (e.g. the differential suite running interp and native side
// by side per app) compile once.
#pragma once

#include <memory>
#include <string>

#include "native/abi.hpp"

namespace lucid::native {

/// A loaded module. Holds the dlopen handle open for the process lifetime
/// (handles are shared via the cache and never dlclosed — generated code may
/// be referenced by long-lived Runtime objects).
class Module {
 public:
  /// Compiles and loads `source`; returns nullptr and fills `error` on any
  /// failure (compiler missing, compile error, dlopen/dlsym failure, ABI
  /// version mismatch). Cache hit returns the previously loaded module.
  static std::shared_ptr<Module> load(const std::string& source,
                                      std::string* error);

  [[nodiscard]] std::int32_t max_gens() const { return max_gens_; }
  [[nodiscard]] std::int32_t run_one(std::int64_t* const* arrays,
                                     const PacketIn& in, GenOut* out) const {
    return run_one_(arrays, &in, out);
  }
  /// Runs a batch and publishes the obs batch metrics (one histogram
  /// observation + one counter add per *batch*, so the per-packet path
  /// inside the generated code stays untouched). Out-of-line in jit.cpp.
  void run_batch(std::int64_t* const* arrays, const PacketIn* in,
                 std::int32_t n, GenOut* out,
                 std::int32_t* gen_counts) const;

  /// The raw generated entry point, with no instrumentation at all —
  /// bench_native measures its pps as the baseline for the obs overhead
  /// gate.
  [[nodiscard]] RunBatchFn raw_run_batch() const { return run_batch_; }

  /// Milliseconds spent in the external compiler (0 on cache hit).
  [[nodiscard]] double compile_ms() const { return compile_ms_; }

 private:
  Module() = default;

  void* handle_ = nullptr;
  RunOneFn run_one_ = nullptr;
  RunBatchFn run_batch_ = nullptr;
  std::int32_t max_gens_ = 0;
  double compile_ms_ = 0.0;
};

}  // namespace lucid::native
