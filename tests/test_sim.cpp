// Discrete-event simulator core tests: ordering, determinism, clock
// semantics, and the Rng utilities.
#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace lucid::sim {
namespace {

TEST(Simulator, RunsCallbacksInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Time fired = -1;
  sim.at(100, [&] {
    sim.after(50, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 150);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  Time fired = -1;
  sim.at(100, [&] {
    sim.at(10, [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.at(10, [&] { ++count; });
  sim.at(20, [&] { ++count; });
  sim.at(30, [&] { ++count; });
  sim.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CallbacksCanScheduleRecursively) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) sim.after(10, tick);
  };
  sim.after(10, tick);
  sim.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, DaemonsDoNotKeepRunGoing) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.daemon_after(10, tick);  // re-arms forever
  };
  sim.daemon_after(10, tick);
  bool ran = false;
  sim.at(55, [&] { ran = true; });
  EXPECT_TRUE(sim.run());
  EXPECT_TRUE(ran);
  EXPECT_EQ(ticks, 5);  // the daemon ran, in time order, until 55
  EXPECT_EQ(sim.now(), 55);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, HeldWorkKeepsRunGoingUntilReleased) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks == 3) sim.release();  // a daemon frees the parked work
    sim.daemon_after(10, tick);
  };
  sim.daemon_after(10, tick);
  sim.hold();
  EXPECT_TRUE(sim.run());
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, RunReportsTheRunawayGuard) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.after(10, tick);  // a live callback that never stops
  };
  sim.after(10, tick);
  EXPECT_FALSE(sim.run(1000));
  EXPECT_EQ(ticks, 1000);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

}  // namespace
}  // namespace lucid::sim
