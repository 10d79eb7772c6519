// The binary interface between the host process and a JIT-compiled native
// pipeline module (src/native/jit.cpp loads one per program).
//
// A module is self-contained generated C++ (src/native/emit.cpp) compiled to
// a shared object (linked -nostdlib: it calls no library function) and
// dlopen'd into the process. It exports three C symbols:
//
//   lucid_native_abi_version()  -> kAbiVersion (checked at load)
//   lucid_native_max_gens()     -> max generate records one packet can emit
//   lucid_native_run_batch(arrays, in, n, out, cnts) -> per-packet gen counts
//
// A one-packet call is a batch of one (Module::run_one).
//
// `arrays` is one raw cell pointer per register array, in IR declaration
// order (ir::ProgramIR::arrays). The module owns all semantics — width
// masking, index clamping, memop evaluation — so the host just hands over
// storage. The struct definitions below are mirrored *textually* into every
// generated module; bump kAbiVersion whenever their layout changes.
#pragma once

#include <cstdint>

namespace lucid::native {

inline constexpr std::uint32_t kAbiVersion = 2;

/// Fixed argument capacity: the backend refuses programs whose events carry
/// more parameters (the paper apps top out at 5).
inline constexpr int kMaxArgs = 8;

/// One event packet entering the pipeline.
struct PacketIn {
  std::int32_t event_id = -1;
  std::int32_t nargs = 0;
  std::int64_t now_ns = 0;   // Sys.time() source; module masks to 32 bits
  std::int64_t self_id = 0;  // SELF
  std::int64_t args[kMaxArgs] = {};
};

/// One generated event leaving the pipeline. The module resolves no group
/// membership — it reports the group's index into ir::ProgramIR::groups and
/// the host expands members (mirroring how the interpreter's scheduler
/// expands multicast clones).
struct GenOut {
  std::int32_t event_id = -1;
  std::int32_t multicast = 0;
  std::int32_t group = -1;  // index into ProgramIR::groups; -1 = none
  std::int32_t nargs = 0;
  std::int64_t delay_ns = 0;
  std::int64_t location = -1;  // destination switch id; -1 = local/unlocated
  std::int64_t args[kMaxArgs] = {};
};

using AbiVersionFn = std::uint32_t (*)();
using MaxGensFn = std::int32_t (*)();
using RunBatchFn = void (*)(std::int64_t* const* arrays, const PacketIn* in,
                            std::int32_t n, GenOut* out,
                            std::int32_t* gen_counts);

inline constexpr const char* kSymAbiVersion = "lucid_native_abi_version";
inline constexpr const char* kSymMaxGens = "lucid_native_max_gens";
inline constexpr const char* kSymRunBatch = "lucid_native_run_batch";

}  // namespace lucid::native
