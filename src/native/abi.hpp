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
// storage. The record definitions (pisa/packet.hpp) are mirrored *textually*
// into every prelude; bump kAbiVersion whenever their layout or the entry
// signature changes.
#pragma once

#include <cstdint>

#include "pisa/packet.hpp"

namespace lucid::native {

inline constexpr std::uint32_t kAbiVersion = 3;

/// The event records (pisa/packet.hpp): one packet into a handler and one
/// generate out of it. A program whose events carry more than kMaxArgs
/// params is refused before emission (check_envelope).
using pisa::GenOut;
using pisa::kMaxArgs;
using pisa::PacketIn;

using AbiVersionFn = std::uint32_t (*)();
/// One packet through one handler; returns the GenOut records written.
using EventFn = std::int32_t (*)(std::int64_t* const* arrays,
                                 const PacketIn* in, GenOut* out);

inline constexpr const char* kSymAbiVersion = "lucid_native_abi_version";
/// Followed by the decimal event id.
inline constexpr const char* kSymEventPrefix = "lucid_event_";

}  // namespace lucid::native
