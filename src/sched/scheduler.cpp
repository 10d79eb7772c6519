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

void EventScheduler::inject(pisa::Packet p, sim::Time delay_ns) {
  p.created = switch_.sim().now();
  p.due = p.created + delay_ns;
  switch_.inject(p);
}

void EventScheduler::inject_control(pisa::Packet p, sim::Time delay_ns) {
  ++stats_.control_injected;
  p.location = -1;
  p.created = switch_.sim().now();
  p.due = p.created + delay_ns;
  switch_.recirculate(p);
}

void EventScheduler::generate(const pisa::GenOut& g,
                              std::span<const std::int64_t> members,
                              RunCounters& counters) {
  dispatch_generate(g, members, self(), switch_.sim().now(), counters,
                    [this](const pisa::Packet& p, bool recirculate) {
                      if (recirculate) {
                        switch_.recirculate(p);
                      } else {
                        route_out(p);
                      }
                    });
}

void EventScheduler::route_out(const pisa::Packet& p) {
  ++stats_.forwarded;
  m_forwarded_->add();
  switch_.send_external(p, [this](pisa::Packet q) {
    if (net_send_) net_send_(q);
  });
}

void EventScheduler::on_ingress(pisa::Packet p) {
  const sim::Time now = switch_.sim().now();
  switch (ingress_disposition(p.location, self(), now, p.due, config_.mode,
                              switch_.delay_queue_open())) {
    case Disposition::RouteOut:
      route_out(p);
      return;
    case Disposition::Recirculate:
      switch_.recirculate(p);
      return;
    case Disposition::DelayEnqueue:
      ++stats_.delayed_enqueues;
      switch_.delay_enqueue(p);
      return;
    case Disposition::Execute:
      break;
  }
  ++stats_.executed;
  m_executed_->add();
  m_latency_->observe(
      static_cast<std::uint64_t>(std::max<sim::Time>(0, now - p.created)));
  if (p.due > p.created) {
    stats_.delay_samples.emplace_back(p.due - p.created, now - p.due);
  }
  if (execute_) execute_(p);
  // Event boundary: the handler (if any) ran to completion; queued
  // control-plane updates may now be applied atomically.
  if (apply_point_) apply_point_();
}

}  // namespace lucid::sched
