// The binary interface between the host process and JIT-compiled native
// pipeline code (src/native/jit.cpp loads it).
//
// A module's text (src/native/emit.cpp) is a program-independent prelude
// plus one *unit* per handled event, each opened by a fixed marker line. The
// JIT compiles the prelude followed by the units it has not seen before into
// one shared object (linked -nostdlib: it calls no library function) and
// dlopens it, so one module's units may live in several objects. Every
// object exports
//
//   lucid_native_abi_version()      -> kAbiVersion (checked at load)
//
// and one entry point per unit it holds,
//
//   lucid_event_<id>(arrays, in, out) -> generate records written to out
//
// There is no batch entry point: the host keeps a dense event-id -> entry
// table per module and loops over a batch itself (Module::run_batch_raw).
//
// `arrays` is one raw cell pointer per register array, in IR declaration
// order (ir::ProgramIR::arrays). The module owns all semantics — width
// masking, index clamping, memop evaluation — so the host just hands over
// storage. The struct definitions below are mirrored *textually* into every
// prelude; bump kAbiVersion whenever their layout or the entry signature
// changes.
#pragma once

#include <cstdint>

namespace lucid::native {

inline constexpr std::uint32_t kAbiVersion = 3;

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
/// One packet through one handler; returns the GenOut records written.
using EventFn = std::int32_t (*)(std::int64_t* const* arrays,
                                 const PacketIn* in, GenOut* out);

inline constexpr const char* kSymAbiVersion = "lucid_native_abi_version";
/// Followed by the decimal event id.
inline constexpr const char* kSymEventPrefix = "lucid_event_";

}  // namespace lucid::native
