// Event scheduler tests (section 3.2): dispatch of processable / delayed /
// non-local events, delay via the pausable queue vs the baseline
// recirculation (the Figure 14 comparison in miniature), and serialization
// of generated events.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sched/scheduler.hpp"

namespace lucid::sched {
namespace {

struct Node {
  sim::Simulator sim;
  pisa::Switch sw;
  EventScheduler sched;

  explicit Node(SchedulerConfig cfg = {}, int id = 1)
      : sw(sim,
           [&] {
             pisa::SwitchConfig c;
             c.id = id;
             return c;
           }()),
        sched(sw, cfg) {}
};

TEST(Scheduler, ImmediateLocalEventExecutes) {
  Node n;
  std::vector<std::int64_t> seen;
  n.sched.set_execute([&](const pisa::Packet& p) {
    seen = p.args;
  });
  GenEvent ev;
  ev.event_id = 0;
  ev.args = {7, 8};
  n.sched.inject(ev);
  ASSERT_TRUE(n.sim.run());
  EXPECT_EQ(seen, (std::vector<std::int64_t>{7, 8}));
  EXPECT_EQ(n.sched.stats().executed, 1u);
}

TEST(Scheduler, GeneratedLocalEventRecirculatesOnce) {
  Node n;
  int executions = 0;
  n.sched.set_execute([&](const pisa::Packet& p) {
    ++executions;
    if (p.event_id == 0) {
      GenEvent follow;
      follow.event_id = 1;
      n.sched.generate(follow);
    }
  });
  GenEvent first;
  first.event_id = 0;
  n.sched.inject(first);
  ASSERT_TRUE(n.sim.run());
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(n.sw.recirculations(), 1u);
}

TEST(Scheduler, DelayedEventWaitsInPausableQueue) {
  SchedulerConfig cfg;
  cfg.release_interval_ns = 100 * sim::kUs;
  cfg.release_window_ns = 5 * sim::kUs;
  Node n(cfg);
  sim::Time executed_at = -1;
  n.sched.set_execute([&](const pisa::Packet&) {
    executed_at = n.sim.now();
  });
  GenEvent ev;
  ev.event_id = 0;
  ev.delay_ns = 1 * sim::kMs;
  n.sched.inject(ev);
  n.sim.run_until(3 * sim::kMs);
  ASSERT_GT(executed_at, 0);
  // Executes at the first release at/after the due time; the quantization
  // error is below one release interval (Fig 14 right).
  EXPECT_GE(executed_at, 1 * sim::kMs);
  EXPECT_LE(executed_at - 1 * sim::kMs,
            cfg.release_interval_ns + cfg.release_window_ns);
  ASSERT_EQ(n.sched.stats().delay_samples.size(), 1u);
  EXPECT_EQ(n.sched.stats().delay_samples[0].first, 1 * sim::kMs);
}

TEST(Scheduler, RunWaitsForAnEventParkedInThePausableQueue) {
  // The PFC stream is daemon work, but a packet parked in the delay queue
  // holds the simulator: run() must not return before it executes.
  SchedulerConfig cfg;
  cfg.release_interval_ns = 100 * sim::kUs;
  cfg.release_window_ns = 5 * sim::kUs;
  Node n(cfg);
  sim::Time executed_at = -1;
  n.sched.set_execute([&](const pisa::Packet&) {
    executed_at = n.sim.now();
  });
  GenEvent ev;
  ev.event_id = 0;
  ev.delay_ns = 1 * sim::kMs;
  n.sched.inject(ev);
  ASSERT_TRUE(n.sim.run());
  EXPECT_GE(executed_at, 1 * sim::kMs);
  EXPECT_EQ(n.sw.delay_queue_depth(), 0u);
}

TEST(Scheduler, BaselineDelaySpinsTheRecircPort) {
  SchedulerConfig cfg;
  cfg.mode = DelayMode::BaselineRecirculation;
  Node n(cfg);
  sim::Time executed_at = -1;
  n.sched.set_execute([&](const pisa::Packet&) {
    executed_at = n.sim.now();
  });
  GenEvent ev;
  ev.event_id = 0;
  ev.delay_ns = 100 * sim::kUs;
  n.sched.inject(ev);
  n.sim.run_until(sim::kMs);
  ASSERT_GT(executed_at, 0);
  // Error bounded by one recirculation loop (~600 ns), far tighter than the
  // queue — but look at the cost:
  EXPECT_LE(executed_at - 100 * sim::kUs, 1'000);
  // ~100us / ~606ns per loop => at least ~150 recirculations for ONE event.
  EXPECT_GE(n.sw.recirculations(), 140u);
}

TEST(Scheduler, PausableQueueUsesFarLessBandwidthThanBaseline) {
  // Fig 14 in miniature: 20 events delayed "indefinitely" for 2 ms.
  auto run_mode = [](DelayMode mode) -> double {
    SchedulerConfig cfg;
    cfg.mode = mode;
    Node n(cfg);
    n.sched.set_execute([](const pisa::Packet&) {});
    for (int i = 0; i < 20; ++i) {
      GenEvent ev;
      ev.event_id = 0;
      ev.delay_ns = 10 * sim::kSec;  // effectively forever
      n.sched.inject(ev);
    }
    const sim::Time horizon = 2 * sim::kMs;
    n.sim.run_until(horizon);
    const auto bytes = n.sw.recirc_stats().wire_bytes;
    return static_cast<double>(bytes) * 8.0 /
           static_cast<double>(horizon);  // Gb/s (bits per ns)
  };
  const double baseline = run_mode(DelayMode::BaselineRecirculation);
  const double queued = run_mode(DelayMode::PausableQueue);
  EXPECT_GT(baseline, 10.0);          // tens of Gb/s of spinning
  EXPECT_LT(queued, baseline / 5.0);  // the paper reports ~20x at 90 events
}

TEST(Scheduler, NonLocalEventForwardsThroughNetwork) {
  sim::Simulator sim;
  pisa::SwitchConfig c1;
  c1.id = 1;
  pisa::SwitchConfig c2;
  c2.id = 2;
  pisa::Switch sw1(sim, c1);
  pisa::Switch sw2(sim, c2);
  EventScheduler s1(sw1, {});
  EventScheduler s2(sw2, {});
  net::Network network(sim);
  network.add_node(s1);
  network.add_node(s2);
  network.connect(1, 2, sim::kUs);

  int executed_at_2 = 0;
  sim::Time when = -1;
  s1.set_execute([&](const pisa::Packet&) { FAIL() << "ran at wrong node"; });
  s2.set_execute([&](const pisa::Packet& p) {
    ++executed_at_2;
    when = sim.now();
    EXPECT_EQ(p.args.size(), 1u);
  });

  GenEvent ev;
  ev.event_id = 0;
  ev.args = {99};
  ev.location = 2;
  s1.inject(ev);
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(executed_at_2, 1);
  // One link hop (~1us) plus pipeline passes.
  EXPECT_GE(when, sim::kUs);
  EXPECT_EQ(s1.stats().forwarded, 1u);
}

TEST(Scheduler, MulticastReachesAllMembers) {
  sim::Simulator sim;
  std::vector<std::unique_ptr<pisa::Switch>> switches;
  std::vector<std::unique_ptr<EventScheduler>> scheds;
  net::Network network(sim);
  std::map<int, int> executions;
  for (int id = 1; id <= 3; ++id) {
    pisa::SwitchConfig c;
    c.id = id;
    switches.push_back(std::make_unique<pisa::Switch>(sim, c));
    scheds.push_back(std::make_unique<EventScheduler>(*switches.back(),
                                                      SchedulerConfig{}));
    network.add_node(*scheds.back());
  }
  for (int id = 1; id <= 3; ++id) {
    scheds[static_cast<std::size_t>(id - 1)]->set_execute(
        [&executions, id](const pisa::Packet&) { ++executions[id]; });
  }
  network.connect(1, 2);
  network.connect(1, 3);

  // Node 1 handler multicasts to {2, 3} when it executes event 0.
  scheds[0]->set_execute([&](const pisa::Packet& p) {
    ++executions[1];
    if (p.event_id == 0) {
      GenEvent ev;
      ev.event_id = 1;
      ev.multicast = true;
      ev.members = {2, 3};
      scheds[0]->generate(ev);
    }
  });

  GenEvent start;
  start.event_id = 0;
  scheds[0]->inject(start);
  ASSERT_TRUE(sim.run());
  EXPECT_EQ(executions[1], 1);
  EXPECT_EQ(executions[2], 1);
  EXPECT_EQ(executions[3], 1);
  EXPECT_EQ(network.delivered(), 2u);
}

TEST(Scheduler, DelayedRemoteEventForwardsThenDelaysAtDestination) {
  // Event.delay(Event.locate(e, 2), d): per the dispatcher rules (section
  // 3.2), a non-local event forwards immediately; the delay is enforced by
  // the destination switch's delay queue.
  sim::Simulator sim;
  pisa::SwitchConfig c1;
  c1.id = 1;
  pisa::SwitchConfig c2;
  c2.id = 2;
  pisa::Switch sw1(sim, c1);
  pisa::Switch sw2(sim, c2);
  EventScheduler s1(sw1, {});
  EventScheduler s2(sw2, {});
  net::Network network(sim);
  network.add_node(s1);
  network.add_node(s2);
  network.connect(1, 2);

  sim::Time when = -1;
  s2.set_execute([&](const pisa::Packet&) { when = sim.now(); });
  s1.set_execute([](const pisa::Packet&) {});

  GenEvent ev;
  ev.event_id = 0;
  ev.location = 2;
  ev.delay_ns = 500 * sim::kUs;
  s1.inject(ev);
  sim.run_until(2 * sim::kMs);
  ASSERT_GT(when, 0);
  EXPECT_GE(when, 500 * sim::kUs);
}

TEST(Network, UnknownDestinationIsDropped) {
  Node n;
  net::Network network(n.sim);
  network.add_node(n.sched);
  GenEvent ev;
  ev.event_id = 0;
  ev.location = 99;
  n.sched.inject(ev);
  ASSERT_TRUE(n.sim.run());
  EXPECT_EQ(network.dropped(), 1u);
}

}  // namespace
}  // namespace lucid::sched
