// Robustness: the front end must never crash — it reports diagnostics — on
// malformed, truncated, or adversarial input; and the scheduler handles
// degenerate configurations.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "sched/scheduler.hpp"
#include "sim/rng.hpp"

namespace lucid {
namespace {

// ---------------------------------------------------------------------------
// Front end never crashes
// ---------------------------------------------------------------------------

class ParserRobustness : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRobustness, MalformedInputYieldsDiagnosticsNotCrashes) {
  const CompilerDriver driver;
  const CompilationPtr r = driver.run(GetParam());
  EXPECT_FALSE(r->ok());
  EXPECT_TRUE(r->diags().has_errors());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserRobustness,
    ::testing::Values(
        "event",                                  // truncated declaration
        "handle e( {",                            // broken parameter list
        "global g = new Array<<>>(4);",           // missing width
        "global g = new Vector<<32>>(4);",        // not an Array
        "const int X = ;",                        // missing initializer
        "memop m(int a, int b) { return a + ; }", // broken expression
        "event e(); handle e() { if (1 { } }",    // unbalanced parens
        "event e(); handle e() { generate ; }",   // missing event
        "event e(); handle e() { int x = (((((1; }",  // deep unbalanced
        "}}}}{{{{",                                // garbage
        "event e(int x); handle e(int x) { x = }",
        "/* unterminated",                         // comment runs off
        "event e(); handle e() { Array.get(); }",  // no such array
        "fun f() { }",                             // missing return type
        "const group G = {1,;",                    // broken group
        "event e(); handle e() { y = 1; }"));      // undefined assign

TEST(ParserRobustness, RandomBytesNeverCrash) {
  // Fuzz-lite: printable-noise inputs of growing length. The only
  // requirement is "no crash, no hang"; diagnostics are expected.
  sim::Rng rng(1234);
  const std::string alphabet =
      "abcdefgh (){};=<>!&|+-*/%^~.,0123456789\n\t\"'";
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const int len = static_cast<int>(rng.uniform(1, 300));
    for (int i = 0; i < len; ++i) {
      input += alphabet[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    const CompilerDriver driver;
    const CompilationPtr r = driver.run(input);
    // Random noise essentially never forms a valid program; either way,
    // the compiler returned instead of crashing.
    (void)r;
  }
  SUCCEED();
}

TEST(ParserRobustness, EmptyAndWhitespaceProgramsAreValid) {
  for (const char* src : {"", "   \n\t  ", "// just a comment\n"}) {
    const CompilerDriver driver;
    const CompilationPtr r = driver.run(src);
    EXPECT_TRUE(r->ok()) << r->diags().render();
    EXPECT_TRUE(r->ir().handlers.empty());
  }
}

TEST(ParserRobustness, DeeplyNestedIfsCompile) {
  std::string body = "int y = 0;\n";
  std::string open;
  std::string close;
  for (int i = 0; i < 24; ++i) {
    open += "if (x == " + std::to_string(i) + ") {\n";
    close += "}\n";
  }
  const std::string src = "event e(int x);\nhandle e(int x) {\n" + body +
                          open + "y = 1;\n" + close + "}\n";
  const CompilerDriver driver;
  const CompilationPtr r = driver.run(src);
  EXPECT_TRUE(r->ok()) << r->diags().render();
}

// ---------------------------------------------------------------------------
// Scheduler edge cases
// ---------------------------------------------------------------------------

TEST(SchedulerEdge, ZeroDelayEventIsImmediatelyProcessable) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler scheduler(sw, {});
  int executed = 0;
  scheduler.set_execute([&](const pisa::Packet&) { ++executed; });
  pisa::Packet p;
  p.event_id = 0;
  scheduler.inject(p, /*delay_ns=*/0);
  simulator.run_until(sim::kMs);
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(scheduler.stats().delayed_enqueues, 0u);
}

TEST(SchedulerEdge, LocateAtSelfExecutesLocally) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 7;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler scheduler(sw, {});
  int executed = 0;
  scheduler.set_execute([&](const pisa::Packet&) { ++executed; });
  pisa::Packet p;
  p.event_id = 0;
  p.location = 7;  // explicitly located at self
  scheduler.inject(p);
  simulator.run_until(sim::kMs);
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(scheduler.stats().forwarded, 0u);
}

TEST(SchedulerEdge, MulticastWithEmptyGroupIsANoOp) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler scheduler(sw, {});
  sched::RunCounters counters(2);
  int executed = 0;
  scheduler.set_execute([&](const pisa::Packet& p) {
    ++executed;
    if (p.event_id == 0) {
      pisa::GenOut out;
      out.event_id = 1;
      out.multicast = 1;
      scheduler.generate(out, /*members=*/{}, counters);
    }
  });
  pisa::Packet start;
  start.event_id = 0;
  scheduler.inject(start);
  simulator.run_until(sim::kMs);
  // Multicast to nobody: handled as a local unicast (clone-less), the
  // follow-up event still runs exactly once.
  EXPECT_EQ(executed, 2);
}

TEST(SchedulerEdge, ManySimultaneousInjectionsAllExecute) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler scheduler(sw, {});
  int executed = 0;
  scheduler.set_execute([&](const pisa::Packet&) { ++executed; });
  pisa::Packet p;
  p.event_id = 0;
  for (int i = 0; i < 10'000; ++i) scheduler.inject(p);
  simulator.run_until(10 * sim::kMs);
  EXPECT_EQ(executed, 10'000);
}

}  // namespace
}  // namespace lucid
