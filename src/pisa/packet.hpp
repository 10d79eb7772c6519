// The simulated packet: an event packet in parsed form. On the wire this is
// ethernet + lucid_event_h + the event's argument header (see the P4
// backend); the simulator keeps the parsed representation and models size
// for serialization/bandwidth purposes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace lucid::pisa {

/// Ethernet minimum frame: an argument-less event packet, or a PFC frame.
inline constexpr int kMinFrameBytes = 64;

/// Frame size of an event packet carrying `nargs` argument words: ethernet
/// + lucid_event_h (34 bytes) + 4 bytes per argument, padded to the minimum
/// frame. The scheduler and the native replica both size packets with it.
[[nodiscard]] constexpr int event_frame_bytes(int nargs) {
  return std::max(kMinFrameBytes, 34 + 4 * nargs);
}

/// Bytes a frame occupies on the wire: Ethernet preamble + inter-frame gap
/// add 20 bytes.
[[nodiscard]] constexpr int frame_wire_bytes(int frame_bytes) {
  return frame_bytes + 20;
}

struct Packet {
  // Wire accounting.
  int size_bytes = kMinFrameBytes;  // grows with argument payload

  // Lucid event metadata (mirrors lucid_event_h).
  int event_id = -1;
  std::vector<std::int64_t> args;
  std::int64_t location = -1;  // destination switch id; -1 = local

  // Delay bookkeeping: the event must not execute before `due_ns`.
  sim::Time created_ns = 0;
  sim::Time due_ns = 0;

  // PFC pause frames (queue control).
  bool is_pfc = false;
  bool pfc_pause = false;

  // Diagnostics.
  int recirc_count = 0;

  [[nodiscard]] int wire_bytes() const { return frame_wire_bytes(size_bytes); }
};

}  // namespace lucid::pisa
