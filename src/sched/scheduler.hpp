// The Lucid data-plane event scheduler (section 3.2): the library that sits
// between application handlers and the switch hardware. It implements
//
//   - event serialization: each generate record becomes its own event packet
//     (multicast clones expanded here, one per group member);
//   - event dispatching: non-local events are forwarded into the fabric,
//     delayed local events go to the delay machinery, processable events run
//     their handler;
//   - delay: either the paper's optimized *pausable queue* (events wait in a
//     paused traffic-manager queue that PFC pairs from the packet generator
//     release periodically) or the *baseline* continuous recirculation that
//     Figure 14 compares against.
//
// The handler itself is installed by the interpreter; the scheduler is
// application-agnostic: it carries the records of pisa/packet.hpp and never
// looks a name or a group up.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pisa/switch.hpp"

namespace lucid::sched {

enum class DelayMode {
  PausableQueue,            // optimized (paper section 3.2)
  BaselineRecirculation,    // spin through the recirc port until due
};

struct SchedulerConfig {
  DelayMode mode = DelayMode::PausableQueue;
  /// PFC release period and open-window width for the pausable queue.
  sim::Time release_interval_ns = 100 * sim::kUs;
  sim::Time release_window_ns = 5 * sim::kUs;
};

/// What the scheduler does with an event packet whose ingress pipeline pass
/// just completed (section 3.2 "event dispatching").
enum class Disposition : std::uint8_t {
  RouteOut,      // addressed to another switch: out through a front port
  Recirculate,   // not yet due and the delay queue is not taking it: loop
  DelayEnqueue,  // not yet due: park in the paused delay queue
  Execute,       // local and due: run the handler
};

/// The ingress dispatch policy, written once: EventScheduler::on_ingress and
/// native::Replica's drain both switch on it. Baseline mode spins every
/// early packet through the recirculation port; the pausable queue parks it
/// unless a release window is open, in which case it keeps looping until
/// the window closes or the event comes due.
[[nodiscard]] inline Disposition ingress_disposition(
    std::int64_t location, int self, sim::Time now, sim::Time due,
    DelayMode mode, bool delay_queue_open) {
  if (location >= 0 && location != self) return Disposition::RouteOut;
  if (now < due) {
    return mode == DelayMode::BaselineRecirculation || delay_queue_open
               ? Disposition::Recirculate
               : Disposition::DelayEnqueue;
  }
  return Disposition::Execute;
}

/// The generate serializer (section 3.2 "event serialization"), written
/// once: EventScheduler::generate and native::Replica's dispatch both call
/// it. It calls `send(location, recirculate)` once per event packet. A
/// multicast (non-empty `members`) sends one clone per member, in member
/// order, recirculated when the member is `self` and routed out otherwise;
/// a remote location is routed out; anything else is local and goes to the
/// recirculation port with location -1.
template <class Send>
inline void serialize_generate(std::int64_t location,
                               std::span<const std::int64_t> members,
                               int self, Send&& send) {
  if (!members.empty()) {
    for (const std::int64_t member : members) send(member, member == self);
    return;
  }
  if (location >= 0 && location != self) {
    send(location, false);
    return;
  }
  send(std::int64_t{-1}, true);
}

/// Name-keyed handler statistics of an engine run (RunCounters::stats
/// builds it; only events that occurred get an entry).
struct RunStats {
  std::map<std::string, std::uint64_t> executions;
  std::map<std::string, std::uint64_t> generated;
  std::uint64_t total_executions = 0;
};

/// The dense per-event-id counters both engines (interp::Runtime and
/// native::Replica) bump on their hot path.
class RunCounters {
 public:
  explicit RunCounters(std::size_t events)
      : execs_(events, 0), gens_(events, 0) {}

  /// A handler execution of event `id` (a declared event).
  void executed(std::size_t id) {
    ++total_;
    ++execs_[id];
  }
  /// A generate of event `id`; ids outside the program are not counted.
  void generated(std::int64_t id) {
    if (id >= 0 && static_cast<std::size_t>(id) < gens_.size()) {
      ++gens_[static_cast<std::size_t>(id)];
    }
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// The name-keyed view; `events[id].name` names event `id`.
  template <class Events>
  [[nodiscard]] const RunStats& stats(const Events& events) const {
    view_.executions.clear();
    view_.generated.clear();
    view_.total_executions = total_;
    for (std::size_t id = 0; id < events.size(); ++id) {
      if (execs_[id] != 0) view_.executions[events[id].name] = execs_[id];
      if (gens_[id] != 0) view_.generated[events[id].name] = gens_[id];
    }
    return view_;
  }

 private:
  std::vector<std::uint64_t> execs_;
  std::vector<std::uint64_t> gens_;
  std::uint64_t total_ = 0;
  mutable RunStats view_;
};

/// One generate record's dispatch, written once: EventScheduler::generate
/// and native::Replica's drain both call it (inline: the drain's hot path).
/// It counts the generate and serializes its packet, stamped `now`:
/// `send(packet, recirculate)` gets the unicast or each member's clone. The
/// caller resolves the group's `members` (ir::ProgramIR::members).
template <class Send>
inline void dispatch_generate(const pisa::GenOut& g,
                              std::span<const std::int64_t> members,
                              int self, sim::Time now, RunCounters& counters,
                              Send&& send) {
  counters.generated(g.event_id);
  pisa::Packet p;
  p.event_id = g.event_id;
  p.nargs = g.nargs;
  std::copy_n(g.args, g.nargs, p.args);
  p.created = now;
  p.due = now + g.delay_ns;
  serialize_generate(g.location, members, self,
                     [&](std::int64_t location, bool recirculate) {
                       p.location = location;
                       send(p, recirculate);
                     });
}

class EventScheduler {
 public:
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delayed_enqueues = 0;
    std::uint64_t control_injected = 0;
    /// (requested delay, actual error) per delayed execution.
    std::vector<std::pair<sim::Time, sim::Time>> delay_samples;
  };

  EventScheduler(pisa::Switch& sw, SchedulerConfig config);

  pisa::Switch& node() { return switch_; }
  [[nodiscard]] int self() const { return switch_.id(); }

  /// Installed by the interpreter: runs the handler for a processable event.
  void set_execute(std::function<void(const pisa::Packet&)> fn) {
    execute_ = std::move(fn);
  }
  /// Installed by the network: carries a packet to `packet.location`.
  void set_net_send(std::function<void(pisa::Packet)> fn) {
    net_send_ = std::move(fn);
  }

  /// Installed by the control plane (src/ctrl): invoked at every event
  /// boundary — right after a handler execution completes, never during
  /// one. This is the *apply point* where queued control-plane batches may
  /// touch register state without disturbing in-flight packet processing.
  void set_apply_point(std::function<void()> fn) {
    apply_point_ = std::move(fn);
  }

  /// External arrival (workload traffic) through a front-panel port: `p` is
  /// stamped created now, due `delay_ns` later.
  void inject(pisa::Packet p, sim::Time delay_ns = 0);

  /// Control-plane entry: the event packet enters through the recirculation
  /// port (the switch-CPU / packet-generator path) instead of a front-panel
  /// port — Lucid control events raised by the control plane, not the wire.
  /// Stamped like inject(), and local.
  void inject_control(pisa::Packet p, sim::Time delay_ns = 0);

  /// A generate record a handler wrote, dispatched per dispatch_generate
  /// to `members` (its resolved group; empty when unicast).
  void generate(const pisa::GenOut& g, std::span<const std::int64_t> members,
                RunCounters& counters);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void on_ingress(pisa::Packet p);
  void route_out(const pisa::Packet& p);

  pisa::Switch& switch_;
  SchedulerConfig config_;
  std::function<void(const pisa::Packet&)> execute_;
  std::function<void(pisa::Packet)> net_send_;
  std::function<void()> apply_point_;
  Stats stats_;
  // Process-wide instruments (obs registry), resolved in the constructor.
  obs::Counter* m_executed_ = nullptr;
  obs::Counter* m_forwarded_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
};

}  // namespace lucid::sched
