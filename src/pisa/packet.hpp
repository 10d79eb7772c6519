// The event record, written once. In the paper an event *is* a packet:
// ethernet + lucid_event_h + the event's argument words (see the P4
// backend). Every engine carries it as these POD records: PacketIn into a
// handler and GenOut out of one (the native module ABI, native/abi.hpp, and
// the interpreter's walker alike), and Packet in flight (ports, fabric,
// delay queue, native::Replica's pool). Each holds kMaxArgs argument words;
// a program declaring a wider event is refused before it runs
// (ir::ProgramIR::unfit_event). The wire size derives from the word count.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/simulator.hpp"

namespace lucid::pisa {

/// Argument words an event record carries (the paper apps top out at 5).
inline constexpr int kMaxArgs = 8;

/// One event packet entering the pipeline.
struct PacketIn {
  std::int32_t event_id = -1;
  std::int32_t nargs = 0;
  std::int64_t now_ns = 0;   // Sys.time() source; handlers mask to 32 bits
  std::int64_t self_id = 0;  // SELF
  std::int64_t args[kMaxArgs] = {};
};

/// One generated event leaving the pipeline. Group membership is not
/// resolved here: `group` indexes ir::ProgramIR::groups and the host expands
/// the members (sched::dispatch_generate's caller).
struct GenOut {
  std::int32_t event_id = -1;
  std::int32_t multicast = 0;
  std::int32_t group = -1;  // index into ProgramIR::groups; -1 = none
  std::int32_t nargs = 0;
  std::int64_t delay_ns = 0;
  std::int64_t location = -1;  // destination switch id; -1 = local/unlocated
  std::int64_t args[kMaxArgs] = {};
};

/// One event packet in flight (mirrors lucid_event_h). An argument-less
/// Packet is a minimum-size frame, which is how the PFC stream sizes its
/// pause frames.
struct Packet {
  std::int32_t event_id = -1;
  std::int32_t nargs = 0;
  std::int64_t args[kMaxArgs] = {};
  std::int64_t location = -1;  // destination switch id; -1 = local
  // Delay bookkeeping: the event must not execute before `due`.
  sim::Time created = 0;
  sim::Time due = 0;

  /// Bytes on the wire: ethernet + lucid_event_h (34 bytes) + 4 per
  /// argument word, padded to the 64-byte minimum frame, plus 20 bytes of
  /// preamble and inter-frame gap.
  [[nodiscard]] int wire_bytes() const {
    return std::max(64, 34 + 4 * nargs) + 20;
  }
};

/// The handler input for `p` executing at `now` on switch `self`.
[[nodiscard]] inline PacketIn packet_in(const Packet& p, sim::Time now,
                                        std::int64_t self) {
  PacketIn in;
  in.event_id = p.event_id;
  in.nargs = p.nargs;
  in.now_ns = now;
  in.self_id = self;
  std::copy_n(p.args, p.nargs, in.args);
  return in;
}

}  // namespace lucid::pisa
