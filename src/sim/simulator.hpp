// Discrete-event simulation core: a nanosecond-resolution virtual clock and
// an ordered event queue. Every timing experiment in the reproduction (event
// scheduler accuracy, recirculation bandwidth, flow-installation latency)
// runs on this substrate.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace lucid::sim {

/// Simulation time in nanoseconds.
using Time = std::int64_t;

constexpr Time kNs = 1;
constexpr Time kUs = 1'000;
constexpr Time kMs = 1'000'000;
constexpr Time kSec = 1'000'000'000;

/// A single-threaded discrete-event scheduler. Callbacks scheduled for the
/// same instant run in FIFO order (stable by sequence number), which keeps
/// every simulation deterministic.
///
/// A *daemon* callback is background activity that re-arms itself forever,
/// such as a switch's PFC frame stream. It runs in time order like any
/// other callback, but does not keep run() going: run() returns once only
/// daemons are pending and no work is held (hold()).
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` at absolute time `t` (clamped to `now()`).
  void at(Time t, Callback cb) { push(t, std::move(cb), false); }
  /// Schedule `cb` `delta` ns from now.
  void after(Time delta, Callback cb) { at(now_ + delta, std::move(cb)); }
  /// at / after for a daemon callback.
  void daemon_at(Time t, Callback cb) { push(t, std::move(cb), true); }
  void daemon_after(Time delta, Callback cb) {
    daemon_at(now_ + delta, std::move(cb));
  }

  /// Work parked outside the queue that only a daemon can release (a
  /// packet in a switch's pausable delay queue) keeps run() going while
  /// held; release() once per hold() when it leaves.
  void hold() { ++held_; }
  void release() { --held_; }

  [[nodiscard]] Time now() const { return now_; }
  /// Pending callbacks, daemons included.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Runs one event; returns false when the queue is empty.
  bool step();
  /// Runs all events with time <= t; the clock ends at exactly t.
  void run_until(Time t);
  /// Runs until only daemons are pending and nothing is held, or the queue
  /// is empty. Returns false when it stopped at the `max_events` runaway
  /// guard instead.
  bool run(std::uint64_t max_events = 100'000'000);

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;
    bool daemon;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void push(Time t, Callback cb, bool daemon);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::size_t live_ = 0;  // pending non-daemon entries
  std::size_t held_ = 0;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace lucid::sim
