// A rate-limited port: models FIFO serialization delay and counts wire bytes
// so benches can measure offered bandwidth (Fig 14's recirculation Gb/s).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "pisa/packet.hpp"
#include "sim/simulator.hpp"

namespace lucid::pisa {

struct PortStats {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
};

/// The port's timing rule on its own: a FIFO server at `bits_per_ns` (1 Gb/s
/// == 1 bit/ns) followed by a fixed `latency`. Plain data, so the native
/// replica's event loop keeps its ports by value and calls the same rule
/// Port::send does.
struct PortClock {
  double bits_per_ns = 100.0;
  sim::Time latency = 0;
  sim::Time next_free = 0;
  PortStats stats;

  /// Sends `wire_bytes` at `now`: the frame starts once the port is free,
  /// serializes (at least 1 ns), then travels `latency`. Returns the
  /// delivery time. Back-to-back sends queue behind each other, which is
  /// how saturation emerges.
  sim::Time send(sim::Time now, int wire_bytes) {
    const sim::Time start = std::max(now, next_free);
    const auto bits = static_cast<double>(wire_bytes) * 8.0;
    const auto ser = static_cast<sim::Time>(bits / bits_per_ns);
    next_free = start + std::max<sim::Time>(ser, 1);
    stats.packets += 1;
    stats.wire_bytes += static_cast<std::uint64_t>(wire_bytes);
    return next_free + latency;
  }
};

class Port {
 public:
  /// `rate_gbps` is the line rate; `latency_ns` is the fixed propagation /
  /// processing latency added after serialization.
  Port(sim::Simulator& sim, double rate_gbps, sim::Time latency_ns)
      : sim_(sim) {
    clock_.bits_per_ns = rate_gbps;
    clock_.latency = latency_ns;
  }

  /// Sends `p`; `deliver` fires once the packet has fully serialized and
  /// traversed the port (PortClock::send). A `daemon` send (the switch's
  /// PFC stream) never keeps Simulator::run going.
  void send(Packet p, std::function<void(Packet)> deliver,
            bool daemon = false) {
    const sim::Time at = clock_.send(sim_.now(), p.wire_bytes());
    auto cb = [deliver = std::move(deliver), p]() { deliver(p); };
    if (daemon) {
      sim_.daemon_at(at, std::move(cb));
    } else {
      sim_.at(at, std::move(cb));
    }
  }

  [[nodiscard]] const PortStats& stats() const { return clock_.stats; }

 private:
  sim::Simulator& sim_;
  PortClock clock_;
};

}  // namespace lucid::pisa
