#include "sched/scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace lucid::sched {

EventScheduler::EventScheduler(pisa::Switch& sw, SchedulerConfig config)
    : switch_(sw), config_(config) {
  // Resolved once per scheduler; updates on the dispatch path below are
  // single relaxed atomics. These aggregate across every scheduler in the
  // process (per-switch exact counts stay in stats_).
  auto& reg = obs::Registry::global();
  m_executed_ = &reg.counter("lucid_sched_events_executed_total",
                             "Events dispatched to a local handler");
  m_forwarded_ = &reg.counter("lucid_sched_events_forwarded_total",
                              "Event packets routed into the fabric");
  m_latency_ = &reg.histogram(
      "lucid_sched_packet_latency_ns",
      "Ingress-to-execution latency of processable event packets (ns)");
  switch_.set_ingress([this](pisa::Packet p) { on_ingress(std::move(p)); });
  if (config_.mode == DelayMode::PausableQueue) {
    switch_.start_pfc_stream(config_.release_interval_ns,
                             config_.release_window_ns);
  }
}

pisa::Packet EventScheduler::to_packet(GenEvent&& ev) const {
  pisa::Packet p;
  p.size_bytes = pisa::event_frame_bytes(static_cast<int>(ev.args.size()));
  p.event_id = ev.event_id;
  p.args = std::move(ev.args);
  p.location = ev.location;
  p.created_ns = switch_.sim().now();
  p.due_ns = p.created_ns + ev.delay_ns;
  return p;
}

void EventScheduler::inject(GenEvent ev) {
  switch_.inject(to_packet(std::move(ev)));
}

void EventScheduler::inject_control(GenEvent ev) {
  ++stats_.control_injected;
  pisa::Packet p = to_packet(std::move(ev));
  p.location = -1;
  switch_.recirculate(std::move(p));
}

void EventScheduler::generate(GenEvent ev) {
  std::vector<std::int64_t> members;
  if (ev.multicast) members = std::move(ev.members);
  pisa::Packet p = to_packet(std::move(ev));
  serialize_generate(p.location, members, self(),
                     [&](std::int64_t location, bool recirculate) {
                       // A unicast sends `p` itself; multicast clones copy.
                       pisa::Packet q =
                           members.empty() ? std::move(p) : pisa::Packet(p);
                       q.location = location;
                       if (recirculate) {
                         switch_.recirculate(std::move(q));
                       } else {
                         route_out(std::move(q));
                       }
                     });
}

void EventScheduler::route_out(pisa::Packet p) {
  ++stats_.forwarded;
  m_forwarded_->add();
  switch_.send_external(std::move(p), [this](pisa::Packet q) {
    if (net_send_) net_send_(std::move(q));
  });
}

void EventScheduler::on_ingress(pisa::Packet p) {
  const sim::Time now = switch_.sim().now();
  switch (ingress_disposition(p.location, self(), now, p.due_ns, config_.mode,
                              switch_.delay_queue_open())) {
    case Disposition::RouteOut:
      route_out(std::move(p));
      return;
    case Disposition::Recirculate:
      switch_.recirculate(std::move(p));
      return;
    case Disposition::DelayEnqueue:
      ++stats_.delayed_enqueues;
      switch_.delay_enqueue(std::move(p));
      return;
    case Disposition::Execute:
      break;
  }
  ++stats_.executed;
  m_executed_->add();
  m_latency_->observe(
      static_cast<std::uint64_t>(std::max<sim::Time>(0, now - p.created_ns)));
  if (p.due_ns > p.created_ns) {
    stats_.delay_samples.emplace_back(p.due_ns - p.created_ns,
                                      now - p.due_ns);
  }
  if (execute_) execute_(p);
  // Event boundary: the handler (if any) ran to completion; queued
  // control-plane updates may now be applied atomically.
  if (apply_point_) apply_point_();
}

}  // namespace lucid::sched
