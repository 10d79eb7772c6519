// PISA hardware model tests: register arrays and files, port serialization
// and saturation, recirculation accounting, the pausable delay queue, PFC
// stream, the generate serializer's multicast clones, and the
// management-CPU latency model.
#include <gtest/gtest.h>

#include "pisa/register_array.hpp"
#include "pisa/switch.hpp"
#include "sched/scheduler.hpp"

namespace lucid::pisa {
namespace {

TEST(RegisterArray, MasksToWidth) {
  RegisterArray r("r", 8, 4);
  r.set(0, 0x1ff);
  EXPECT_EQ(r.get(0), 0xff);
  RegisterArray r32("r32", 32, 4);
  r32.set(1, 0x1'0000'0001);
  EXPECT_EQ(r32.get(1), 1);
}

TEST(RegisterArray, IndexWraps) {
  RegisterArray r("r", 32, 4);
  r.set(5, 42);  // wraps to 1
  EXPECT_EQ(r.get(1), 42);
  EXPECT_EQ(r.get(5), 42);
}

TEST(RegisterArray, FillResetsAll) {
  RegisterArray r("r", 32, 8);
  r.fill(7);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r.get(i), 7);
}

TEST(Port, SerializationDelayMatchesRate) {
  sim::Simulator sim;
  Port port(sim, 100.0, 0);  // 100 Gb/s
  Packet p;                  // 64B frame -> 84B wire -> 672 bits -> 6.72 ns
  sim::Time delivered = -1;
  port.send(p, [&](Packet) { delivered = sim.now(); });
  sim.run();
  EXPECT_EQ(delivered, 6);  // truncated 6.72ns
}

TEST(Port, BackToBackPacketsQueue) {
  sim::Simulator sim;
  Port port(sim, 100.0, 0);
  std::vector<sim::Time> arrivals;
  for (int i = 0; i < 3; ++i) {
    port.send(Packet{}, [&](Packet) { arrivals.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each subsequent packet waits for the previous serialization.
  EXPECT_EQ(arrivals[1] - arrivals[0], arrivals[2] - arrivals[1]);
  EXPECT_GT(arrivals[1], arrivals[0]);
}

TEST(Port, CountsWireBytes) {
  sim::Simulator sim;
  Port port(sim, 100.0, 0);
  port.send(Packet{}, [](Packet) {});
  sim.run();
  EXPECT_EQ(port.stats().packets, 1u);
  EXPECT_EQ(port.stats().wire_bytes, 84u);
}

Switch make_switch(sim::Simulator& sim, int id = 1) {
  SwitchConfig cfg;
  cfg.id = id;
  return Switch(sim, cfg);
}

TEST(RegisterFile, FollowsDeclarationOrderAndTypes) {
  struct Decl {
    std::string name;
    int width;
    std::int64_t size;
  };
  const std::vector<Decl> decls = {{"tbl", 16, 32}, {"cnt", 8, 4}};
  RegisterFile file = make_register_file(decls);
  ASSERT_EQ(file.size(), 2u);
  EXPECT_EQ(file[0].name(), "tbl");
  EXPECT_EQ(file[0].width(), 16);
  EXPECT_EQ(file[0].size(), 32);
  EXPECT_EQ(file[1].name(), "cnt");
  EXPECT_EQ(file[1].cells(), std::vector<std::int64_t>(4, 0));
  const std::vector<std::int64_t*> ptrs = cell_pointers(file);
  ASSERT_EQ(ptrs.size(), 2u);
  ptrs[1][2] = 9;  // the module ABI writes through these
  EXPECT_EQ(file[1].get(2), 9);
}

TEST(Switch, InjectReachesIngressAfterPipelineLatency) {
  sim::Simulator sim;
  Switch sw = make_switch(sim);
  sim::Time arrival = -1;
  sw.set_ingress([&](Packet) { arrival = sim.now(); });
  sim.at(1000, [&] { sw.inject(Packet{}); });
  sim.run();
  EXPECT_EQ(arrival, 1000 + sw.config().pipeline_latency_ns);
}

TEST(Switch, RecirculationLoopCostsPipelinePlusPort) {
  sim::Simulator sim;
  Switch sw = make_switch(sim);
  std::vector<sim::Time> arrivals;
  sw.set_ingress([&](Packet p) {
    arrivals.push_back(sim.now());
    if (arrivals.size() < 3) sw.recirculate(std::move(p));
  });
  sw.inject(Packet{});
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  const sim::Time loop = arrivals[1] - arrivals[0];
  // pipeline (400) + recirc port latency (200) + serialization (~6) = ~606.
  EXPECT_GE(loop, 600);
  EXPECT_LE(loop, 620);
  EXPECT_EQ(sw.recirculations(), 2u);
}

TEST(Switch, DelayQueueHoldsUntilOpened) {
  sim::Simulator sim;
  Switch sw = make_switch(sim);
  int arrivals = 0;
  sw.set_ingress([&](Packet) { ++arrivals; });
  Packet p;
  sw.delay_enqueue(p);
  sw.delay_enqueue(p);
  sim.run();
  EXPECT_EQ(arrivals, 0);
  EXPECT_EQ(sw.delay_queue_depth(), 2u);
  sw.set_delay_queue_open(true);
  sim.run();
  EXPECT_EQ(arrivals, 2);
  EXPECT_EQ(sw.delay_queue_depth(), 0u);
}

TEST(Switch, PfcStreamOpensAndClosesQueue) {
  sim::Simulator sim;
  Switch sw = make_switch(sim);
  sw.set_ingress([](Packet) {});
  sw.start_pfc_stream(10 * sim::kUs, 2 * sim::kUs);
  // The unpause PFC needs ~206 ns to serialize and cross the recirc port.
  sim.run_until(300);
  EXPECT_TRUE(sw.delay_queue_open());
  // After the window (plus the pause frame's port traversal), closed again.
  sim.run_until(3 * sim::kUs);
  EXPECT_FALSE(sw.delay_queue_open());
  // Next period opens again.
  sim.run_until(10 * sim::kUs + 300);
  EXPECT_TRUE(sw.delay_queue_open());
  sw.stop_pfc_stream();
}

TEST(Serializer, MulticastClonesPerMemberAndUnicastRoutesByLocation) {
  std::vector<std::pair<std::int64_t, bool>> sent;
  const auto send = [&](std::int64_t location, bool recirculate) {
    sent.emplace_back(location, recirculate);
  };
  const std::vector<std::int64_t> members = {2, 3, 5};
  sched::serialize_generate(-1, members, /*self=*/3, send);
  EXPECT_EQ(sent, (std::vector<std::pair<std::int64_t, bool>>{
                      {2, false}, {3, true}, {5, false}}));
  sent.clear();
  sched::serialize_generate(7, {}, 3, send);  // remote: routed out
  sched::serialize_generate(3, {}, 3, send);  // addressed to self: local
  sched::serialize_generate(-1, {}, 3, send);  // unlocated: local
  EXPECT_EQ(sent, (std::vector<std::pair<std::int64_t, bool>>{
                      {7, false}, {-1, true}, {-1, true}}));
}

TEST(Cpu, InstallLatencyMatchesMantisEnvelope) {
  sim::Simulator sim;
  Switch sw = make_switch(sim);
  sim::Rng rng(3);
  double sum = 0;
  sim::Time min_seen = std::numeric_limits<sim::Time>::max();
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const sim::Time t = sw.cpu().sample_install(rng);
    min_seen = std::min(min_seen, t);
    sum += static_cast<double>(t);
  }
  // Minimum 12 us; average ~17.5 us (section 7.4).
  EXPECT_GE(min_seen, 12 * sim::kUs);
  EXPECT_NEAR(sum / n, 17.5 * sim::kUs, 500.0);
}

}  // namespace
}  // namespace lucid::pisa
