// A rate-limited port: models FIFO serialization delay and counts wire bytes
// so benches can measure offered bandwidth (Fig 14's recirculation Gb/s).
#pragma once

#include <cstdint>
#include <functional>

#include "pisa/packet.hpp"
#include "sim/simulator.hpp"

namespace lucid::pisa {

struct PortStats {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
};

class Port {
 public:
  /// `rate_gbps` is the line rate; `latency_ns` is the fixed propagation /
  /// processing latency added after serialization.
  Port(sim::Simulator& sim, double rate_gbps, sim::Time latency_ns)
      : sim_(sim), bits_per_ns_(rate_gbps), latency_(latency_ns) {}

  /// Sends `p`; `deliver` fires once the packet has fully serialized and
  /// traversed the port. Back-to-back sends queue behind each other (the
  /// port is a FIFO server), which is how saturation emerges.
  void send(Packet p, std::function<void(Packet)> deliver) {
    const sim::Time start = std::max(sim_.now(), next_free_);
    const auto bits = static_cast<double>(p.wire_bytes()) * 8.0;
    const auto ser = static_cast<sim::Time>(bits / bits_per_ns_);
    next_free_ = start + std::max<sim::Time>(ser, 1);
    stats_.packets += 1;
    stats_.wire_bytes += static_cast<std::uint64_t>(p.wire_bytes());
    // PFC frames are the switch's daemon stream (Switch::pfc_tick).
    const bool daemon = p.is_pfc;
    auto cb = [deliver = std::move(deliver), p = std::move(p)]() mutable {
      deliver(std::move(p));
    };
    if (daemon) {
      sim_.daemon_at(next_free_ + latency_, std::move(cb));
    } else {
      sim_.at(next_free_ + latency_, std::move(cb));
    }
  }

  /// Instantaneous backlog: ns until the port would be free.
  [[nodiscard]] sim::Time backlog() const {
    return next_free_ > sim_.now() ? next_free_ - sim_.now() : 0;
  }

  [[nodiscard]] const PortStats& stats() const { return stats_; }
  [[nodiscard]] double rate_gbps() const { return bits_per_ns_; }

 private:
  sim::Simulator& sim_;
  double bits_per_ns_;  // 1 Gb/s == 1 bit/ns
  sim::Time latency_;
  sim::Time next_free_ = 0;
  PortStats stats_;
};

}  // namespace lucid::pisa
