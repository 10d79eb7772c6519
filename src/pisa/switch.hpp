// The PISA switch hardware model (section 2.2): a recirculation port with
// bandwidth accounting, front-panel ports, the traffic manager's pausable
// "delay queue", the packet generator that emits PFC pause/unpause pairs
// (section 3.2 "Implementing delay"), and the management CPU latency model
// used by the remote-control baseline (section 7.4, Mantis).
//
// The switch is *mechanism only*: dispatch policy (what happens to a packet
// at ingress) and generate serialization (which port a generated event
// leaves through, multicast clones included) are the event scheduler's
// (src/sched), mirroring the paper's layering where the scheduler library
// sits between the application and the hardware. Register state is not the
// switch's either: each engine owns a pisa::RegisterFile
// (pisa/register_array.hpp) built from the program's IR.
#pragma once

#include <deque>
#include <functional>

#include "obs/metrics.hpp"
#include "pisa/packet.hpp"
#include "pisa/port.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace lucid::pisa {

struct SwitchConfig {
  int id = 0;
  double front_rate_gbps = 100.0;
  double recirc_rate_gbps = 100.0;
  /// One pass through the match-action pipeline.
  sim::Time pipeline_latency_ns = 400;
  /// Recirculation port serialization is modeled by the port itself; this is
  /// its fixed latency. A full recirculation loop costs roughly
  /// pipeline + recirc latency (~600 ns, matching the installation times in
  /// section 7.4).
  sim::Time recirc_latency_ns = 200;
};

/// Mantis-style management CPU: installing a rule from the switch CPU takes
/// at least 12 us with an average of 17.5 us (section 7.4).
struct ManagementCpu {
  sim::Time min_install_ns = 12 * sim::kUs;
  double mean_extra_ns = 5'500.0;

  [[nodiscard]] sim::Time sample_install(sim::Rng& rng) const {
    return min_install_ns +
           static_cast<sim::Time>(rng.exponential(mean_extra_ns));
  }
};

class Switch {
 public:
  Switch(sim::Simulator& sim, SwitchConfig config);
  ~Switch();

  [[nodiscard]] int id() const { return config_.id; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  // ---- packet paths ---------------------------------------------------------
  /// The scheduler installs the ingress dispatch function.
  void set_ingress(std::function<void(Packet)> fn) {
    ingress_ = std::move(fn);
  }

  /// External arrival at a front-panel port.
  void inject(Packet p);

  /// Egress -> recirculation port -> ingress. Counts recirc bandwidth.
  void recirculate(Packet p);

  /// Egress through a front-panel port towards the network fabric.
  void send_external(Packet p, std::function<void(Packet)> deliver);

  // ---- pausable delay queue (traffic manager + PFC) -------------------------
  /// A parked packet holds the simulator (Simulator::hold): only the
  /// daemon PFC stream releases it.
  void delay_enqueue(Packet p) {
    delay_queue_.push_back(std::move(p));
    m_queue_depth_->add(1);
    sim_.hold();
  }
  [[nodiscard]] bool delay_queue_open() const { return delay_open_; }
  [[nodiscard]] std::size_t delay_queue_depth() const {
    return delay_queue_.size();
  }
  /// Opening drains every queued packet through the recirculation port.
  void set_delay_queue_open(bool open);

  /// Packet generator: emit a PFC (unpause, pause) pair every `interval`,
  /// holding the queue open for `window`. The PFC frames themselves consume
  /// recirculation-port bandwidth.
  void start_pfc_stream(sim::Time interval, sim::Time window);
  void stop_pfc_stream() { pfc_running_ = false; }

  // ---- control-plane pipeline occupancy ---------------------------------------
  /// Models a control-plane update commit occupying the MAU pipeline for
  /// `duration` ns: packets whose pipeline pass would complete while the
  /// commit is in flight are held (in the parser buffer) until it finishes.
  /// Consecutive stalls queue back-to-back rather than overlapping.
  void stall_pipeline(sim::Time duration);
  [[nodiscard]] sim::Time stall_ns_total() const { return stall_ns_total_; }
  [[nodiscard]] std::uint64_t stalled_deliveries() const {
    return stalled_deliveries_;
  }

  // ---- stats ------------------------------------------------------------------
  [[nodiscard]] const PortStats& recirc_stats() const {
    return recirc_port_.stats();
  }
  [[nodiscard]] const PortStats& front_stats() const {
    return front_port_.stats();
  }
  [[nodiscard]] std::uint64_t recirculations() const {
    return recirculations_;
  }

  ManagementCpu& cpu() { return cpu_; }

 private:
  void pfc_tick(sim::Time interval, sim::Time window);
  void deliver_to_ingress(Packet p);
  /// `counted` is true on re-entry from a stall reschedule: the packet was
  /// already counted in stalled_deliveries_ and must not be counted again
  /// even if another commit extended busy_until_ while it waited.
  void finish_pipeline_pass(Packet p, bool counted = false);

  sim::Simulator& sim_;
  SwitchConfig config_;
  Port recirc_port_;
  Port front_port_;
  std::function<void(Packet)> ingress_;
  std::deque<Packet> delay_queue_;
  bool delay_open_ = false;
  bool pfc_running_ = false;
  ManagementCpu cpu_;
  std::uint64_t recirculations_ = 0;
  sim::Time busy_until_ = 0;
  sim::Time stall_ns_total_ = 0;
  std::uint64_t stalled_deliveries_ = 0;
  // Process-wide instruments (obs registry), resolved in the constructor;
  // the destructor returns this switch's queued packets to the depth gauge.
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Counter* m_stall_ns_ = nullptr;
  obs::Counter* m_stalled_deliveries_ = nullptr;
};

}  // namespace lucid::pisa
