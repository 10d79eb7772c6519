#include "pisa/switch.hpp"

namespace lucid::pisa {

Switch::Switch(sim::Simulator& sim, SwitchConfig config)
    : sim_(sim),
      config_(config),
      recirc_port_(sim, config.recirc_rate_gbps, config.recirc_latency_ns),
      front_port_(sim, config.front_rate_gbps, 0) {
  // Process-wide aggregates across every live switch (per-switch exact
  // numbers stay on the accessors above).
  auto& reg = obs::Registry::global();
  m_queue_depth_ = &reg.gauge("lucid_pisa_delay_queue_depth",
                              "Event packets parked in pausable delay "
                              "queues, summed across live switches");
  m_stall_ns_ = &reg.counter(
      "lucid_pisa_pipeline_stall_ns_total",
      "Nanoseconds the MAU pipeline was held by control-plane commits");
  m_stalled_deliveries_ = &reg.counter(
      "lucid_pisa_stalled_deliveries_total",
      "Packets whose pipeline pass waited out a control-plane commit");
}

Switch::~Switch() {
  // Packets still parked in this switch's delay queue leave the process-wide
  // depth gauge with the switch.
  m_queue_depth_->sub(static_cast<std::int64_t>(delay_queue_.size()));
}

void Switch::deliver_to_ingress(Packet p) {
  if (ingress_) {
    // One pipeline pass of latency between parse and the dispatch decision
    // completing; the callback runs handler logic "at" egress time.
    sim_.after(config_.pipeline_latency_ns,
               [this, p = std::move(p)]() mutable {
                 finish_pipeline_pass(std::move(p));
               });
  }
}

void Switch::finish_pipeline_pass(Packet p, bool counted) {
  if (sim_.now() < busy_until_) {
    // A control-plane update commit occupies the MAU pipeline; the packet
    // waits until the commit finishes, then completes its pass. A packet is
    // one stalled delivery no matter how many consecutive commits it waits
    // through — `counted` marks the rescheduled closure so re-entry (a
    // second commit landed while we waited) does not count it again.
    if (!counted) {
      ++stalled_deliveries_;
      m_stalled_deliveries_->add();
    }
    sim_.at(busy_until_, [this, p = std::move(p)]() mutable {
      finish_pipeline_pass(std::move(p), /*counted=*/true);
    });
    return;
  }
  if (ingress_) ingress_(std::move(p));
}

void Switch::stall_pipeline(sim::Time duration) {
  if (duration <= 0) return;
  const sim::Time start = std::max(busy_until_, sim_.now());
  busy_until_ = start + duration;
  stall_ns_total_ += duration;
  m_stall_ns_->add(static_cast<std::uint64_t>(duration));
}

void Switch::inject(Packet p) { deliver_to_ingress(std::move(p)); }

void Switch::recirculate(Packet p) {
  ++recirculations_;
  recirc_port_.send(std::move(p),
                    [this](Packet q) { deliver_to_ingress(std::move(q)); });
}

void Switch::send_external(Packet p, std::function<void(Packet)> deliver) {
  front_port_.send(std::move(p), std::move(deliver));
}

void Switch::set_delay_queue_open(bool open) {
  delay_open_ = open;
  if (!open) return;
  // Drain: every queued event packet goes back through the recirculation
  // port (this is where the paper's "negligible bandwidth" comes from — one
  // pass per release instead of continuous spinning).
  while (!delay_queue_.empty()) {
    Packet p = std::move(delay_queue_.front());
    delay_queue_.pop_front();
    m_queue_depth_->sub(1);
    sim_.release();
    recirculate(std::move(p));
  }
}

void Switch::start_pfc_stream(sim::Time interval, sim::Time window) {
  if (pfc_running_) return;
  pfc_running_ = true;
  pfc_tick(interval, window);
}

void Switch::pfc_tick(sim::Time interval, sim::Time window) {
  if (!pfc_running_) return;
  // The stream re-arms itself forever, so all of it is daemon work (its
  // frames too): it never keeps Simulator::run going. The pair of PFC
  // frames consumes recirculation bandwidth; model them as two minimum-size
  // frames through the port with no delivery.
  recirc_port_.send(
      Packet{}, [this](Packet) { set_delay_queue_open(true); },
      /*daemon=*/true);
  sim_.daemon_after(window, [this] {
    recirc_port_.send(
        Packet{}, [this](Packet) { set_delay_queue_open(false); },
        /*daemon=*/true);
  });
  sim_.daemon_after(interval, [this, interval, window] {
    pfc_tick(interval, window);
  });
}

}  // namespace lucid::pisa
