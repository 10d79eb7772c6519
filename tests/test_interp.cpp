// Interpreter semantics tests: array ops, memops, event generation,
// recursion via events, combinators, functions with array parameters,
// width masking, the hash builtin, and the multi-node counts of the
// Figure 15 testbed.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "interp/testbed.hpp"
#include "native/abi.hpp"
#include "support/bits.hpp"
#include "workload/workload.hpp"

namespace lucid::interp {
namespace {

TEST(Interp, CounterIncrements) {
  Testbed tb(
      "global cnt = new Array<<32>>(4);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event bump(int i);\n"
      "handle bump(int i) { Array.set(cnt, i, plus, 1); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  for (int i = 0; i < 5; ++i) tb.node(1).inject("bump", {2});
  tb.settle();
  EXPECT_EQ(tb.node(1).array("cnt")->get(2), 5);
  EXPECT_EQ(tb.node(1).stats().executions.at("bump"), 5u);
}

TEST(Interp, UpdateReturnsMemopOfOldValue) {
  Testbed tb(
      "global a = new Array<<32>>(2);\n"
      "global out = new Array<<32>>(2);\n"
      "memop mget(int cur, int x) { return cur; }\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event e(int i);\n"
      "handle e(int i) {\n"
      "  int old = Array.update(a, i, mget, 0, plus, 10);\n"
      "  Array.set(out, i, old);\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {0});
  EXPECT_EQ(tb.node(1).array("a")->get(0), 10);   // incremented
  EXPECT_EQ(tb.node(1).array("out")->get(0), 0);  // old value returned
  tb.inject_and_run(1, "e", {0});
  EXPECT_EQ(tb.node(1).array("a")->get(0), 20);
  EXPECT_EQ(tb.node(1).array("out")->get(0), 10);
}

TEST(Interp, ConditionalMemopBranches) {
  Testbed tb(
      "global m = new Array<<32>>(1);\n"
      "memop maxm(int cur, int x) {\n"
      "  if (cur < x) { return x; } else { return cur; }\n"
      "}\n"
      "event e(int v);\n"
      "handle e(int v) { Array.setm(m, 0, maxm, v); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {5});
  tb.inject_and_run(1, "e", {3});
  tb.inject_and_run(1, "e", {9});
  EXPECT_EQ(tb.node(1).array("m")->get(0), 9);
}

TEST(Interp, RecursiveEventBoundedByCondition) {
  Testbed tb(
      "global steps = new Array<<32>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event tick(int n);\n"
      "handle tick(int n) {\n"
      "  Array.set(steps, 0, plus, 1);\n"
      "  if (n > 1) { generate tick(n - 1); }\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "tick", {10});
  EXPECT_EQ(tb.node(1).array("steps")->get(0), 10);
  // Nine self-generations, each one recirculation.
  EXPECT_EQ(tb.switch_at(1).recirculations(), 9u);
}

TEST(Interp, DelayCombinatorDefersExecution) {
  Testbed tb(
      "global t = new Array<<32>>(1);\n"
      "event fire(int x);\n"
      "event arm(int x);\n"
      "handle arm(int x) { generate Event.delay(fire(x), 2ms); }\n"
      "handle fire(int x) { Array.set(t, 0, Sys.time()); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.node(1).inject("arm", {1});
  tb.sim().run_until(5 * sim::kMs);
  const auto fired = tb.node(1).array("t")->get(0);
  EXPECT_GE(fired, 2 * sim::kMs);
  EXPECT_LE(fired, 2 * sim::kMs + 200 * sim::kUs);  // one release period
}

TEST(Interp, LocateSendsToPeer) {
  interp::TestbedConfig cfg;
  cfg.switch_ids = {1, 2};
  Testbed tb(
      "global got = new Array<<32>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event ping(int from);\n"
      "event start(int dest);\n"
      "handle start(int dest) { generate Event.locate(ping(SELF), dest); }\n"
      "handle ping(int from) { Array.set(got, 0, plus, 1); }\n",
      cfg);
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "start", {2});
  EXPECT_EQ(tb.node(2).array("got")->get(0), 1);
  EXPECT_EQ(tb.node(1).array("got")->get(0), 0);
}

TEST(Interp, MulticastGroupReachesMembers) {
  interp::TestbedConfig cfg;
  cfg.switch_ids = {1, 2, 3};
  Testbed tb(
      "const group PEERS = {2, 3};\n"
      "global got = new Array<<32>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event notify(int from);\n"
      "event start(int x);\n"
      "handle start(int x) {\n"
      "  mgenerate Event.locate(notify(SELF), PEERS);\n"
      "}\n"
      "handle notify(int from) { Array.set(got, 0, plus, 1); }\n",
      cfg);
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "start", {0});
  EXPECT_EQ(tb.node(2).array("got")->get(0), 1);
  EXPECT_EQ(tb.node(3).array("got")->get(0), 1);
  EXPECT_EQ(tb.node(1).array("got")->get(0), 0);
}

TEST(Interp, FunctionWithArrayParameterAliases) {
  Testbed tb(
      "global a = new Array<<32>>(2);\n"
      "global b = new Array<<32>>(2);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "fun void bump(Array<<32>> arr, int i) {\n"
      "  Array.set(arr, i, plus, 1);\n"
      "}\n"
      "event e(int i);\n"
      "handle e(int i) {\n"
      "  bump(a, i);\n"
      "  bump(b, i);\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {1});
  EXPECT_EQ(tb.node(1).array("a")->get(1), 1);
  EXPECT_EQ(tb.node(1).array("b")->get(1), 1);

  // A parameter passed on to a helper whose parameter has the same name
  // still names the handler's array.
  Testbed chain(
      "global a = new Array<<32>>(2);\n"
      "global b = new Array<<32>>(2);\n"
      "fun void inner(Array<<32>> arr, int i) { Array.set(arr, i, 7); }\n"
      "fun void outer(Array<<32>> x, Array<<32>> arr, int i) {\n"
      "  Array.set(x, i, 9);\n"
      "  inner(arr, i);\n"
      "}\n"
      "event e(int i);\n"
      "handle e(int i) { outer(a, b, i); }\n");
  ASSERT_TRUE(chain.ok()) << chain.diagnostics();
  chain.inject_and_run(1, "e", {1});
  EXPECT_EQ(chain.node(1).array("a")->get(1), 9);
  EXPECT_EQ(chain.node(1).array("b")->get(1), 7);
}

TEST(Interp, FunctionReturnValue) {
  Testbed tb(
      "global vals = new Array<<32>>(4);\n"
      "global out = new Array<<32>>(4);\n"
      "fun int double_get(int i) {\n"
      "  int v = Array.get(vals, i);\n"
      "  return v + v;\n"
      "}\n"
      "event e(int i);\n"
      "handle e(int i) { Array.set(out, i, double_get(i)); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.node(1).array("vals")->set(2, 21);
  tb.inject_and_run(1, "e", {2});
  EXPECT_EQ(tb.node(1).array("out")->get(2), 42);
}

TEST(Interp, WidthMaskingOnNarrowArrays) {
  Testbed tb(
      "global narrow = new Array<<8>>(2);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event e(int v);\n"
      "handle e(int v) { Array.set(narrow, 0, plus, v); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {200});
  tb.inject_and_run(1, "e", {100});
  // 300 mod 256 = 44.
  EXPECT_EQ(tb.node(1).array("narrow")->get(0), 44);
}

TEST(Interp, EventValueSnapshotsAtBinding) {
  Testbed tb(
      "global out = new Array<<32>>(1);\n"
      "event sink(int v);\n"
      "event e(int x);\n"
      "handle e(int x) {\n"
      "  event pending = sink(x);\n"
      "  x = x + 100;\n"
      "  generate pending;\n"
      "}\n"
      "handle sink(int v) { Array.set(out, 0, v); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {7});
  EXPECT_EQ(tb.node(1).array("out")->get(0), 7);
}

TEST(Interp, HashIsDeterministicAndSeedSensitive) {
  const auto h1 = hash32(1, {10, 20});
  const auto h2 = hash32(1, {10, 20});
  const auto h3 = hash32(2, {10, 20});
  const auto h4 = hash32(1, {20, 10});
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(h1, h4);
}

TEST(Interp, GeneratedStatsTracked) {
  Testbed tb(
      "event a(int n);\n"
      "event b();\n"
      "handle a(int n) {\n"
      "  if (n > 0) { generate b(); }\n"
      "}\n"
      "handle b() { int x = 0; }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "a", {1});
  tb.inject_and_run(1, "a", {0});
  EXPECT_EQ(tb.node(1).stats().generated.at("b"), 1u);
  EXPECT_EQ(tb.node(1).stats().executions.at("b"), 1u);
  EXPECT_EQ(tb.node(1).stats().executions.at("a"), 2u);
}

TEST(Interp, ShortCircuitLogicalOps) {
  Testbed tb(
      "global out1 = new Array<<32>>(1);\n"
      "global out2 = new Array<<32>>(1);\n"
      "event e(int a, int b);\n"
      "handle e(int a, int b) {\n"
      "  if (a == 1 && b == 2) { Array.set(out1, 0, 1); }\n"
      "  if (a == 9 || b == 2) { Array.set(out2, 0, 2); }\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {1, 2});
  EXPECT_EQ(tb.node(1).array("out1")->get(0), 1);
  EXPECT_EQ(tb.node(1).array("out2")->get(0), 2);
}

TEST(Interp, InjectUnknownEventIsRejected) {
  Testbed tb(
      "global cnt = new Array<<32>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event bump(int i);\n"
      "handle bump(int i) { Array.set(cnt, 0, plus, 1); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  EXPECT_FALSE(tb.node(1).inject("no_such_event", {1}));
  tb.settle();
  EXPECT_EQ(tb.node(1).stats().total_executions, 0u);
}

TEST(Interp, InjectArityMismatchIsRejected) {
  Testbed tb(
      "global cnt = new Array<<32>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event bump(int i);\n"
      "handle bump(int i) { Array.set(cnt, 0, plus, 1); }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  EXPECT_FALSE(tb.node(1).inject("bump", {}));      // too few
  EXPECT_FALSE(tb.node(1).inject("bump", {1, 2}));  // too many
  tb.settle();
  EXPECT_EQ(tb.node(1).array("cnt")->get(0), 0);
  EXPECT_EQ(tb.node(1).stats().total_executions, 0u);
  EXPECT_TRUE(tb.node(1).inject("bump", {7}));  // exact arity still works
  tb.settle();
  EXPECT_EQ(tb.node(1).array("cnt")->get(0), 1);
}

TEST(Interp, InjectMasksArgsToDeclaredWidths) {
  Testbed tb(
      "global lo = new Array<<32>>(1);\n"
      "global hi = new Array<<32>>(1);\n"
      "event e(int<<8>> small, int big);\n"
      "handle e(int<<8>> small, int big) {\n"
      "  Array.set(lo, 0, small);\n"
      "  Array.set(hi, 0, big);\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  // 0x1ff exceeds 8 bits; the injected argument is masked like EventCtor
  // masks constructor arguments.
  ASSERT_TRUE(tb.node(1).inject("e", {0x1ff, 0x1ff}));
  tb.settle();
  EXPECT_EQ(tb.node(1).array("lo")->get(0), 0xff);
  EXPECT_EQ(tb.node(1).array("hi")->get(0), 0x1ff);
}

TEST(Interp, TraceHookObservesExecutions) {
  Testbed tb(
      "event a(int n);\n"
      "event b();\n"
      "handle a(int n) {\n"
      "  if (n > 0) { generate b(); }\n"
      "}\n"
      "handle b() { int x = 0; }\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  std::vector<std::string> names;
  std::vector<std::vector<Value>> args;
  tb.node(1).set_trace([&](const std::string& ev, const pisa::Packet& p) {
    names.push_back(ev);
    args.emplace_back(p.args, p.args + p.nargs);
  });
  tb.inject_and_run(1, "a", {3});
  // The hook sees both the injected event and the generated one, in
  // execution order, with the executed argument values.
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  ASSERT_EQ(args[0].size(), 1u);
  EXPECT_EQ(args[0][0], 3);
  EXPECT_TRUE(args[1].empty());

  // Detaching stops the stream.
  tb.node(1).set_trace(nullptr);
  tb.inject_and_run(1, "a", {1});
  EXPECT_EQ(names.size(), 2u);
}

// support::mask_width is the single modeled truncation shared by the
// interpreter and the native engine; pin its edge widths explicitly.
TEST(Interp, MaskWidthEdgeWidths) {
  using support::mask_width;

  // Width 1: a single bit survives.
  EXPECT_EQ(mask_width(0, 1), 0);
  EXPECT_EQ(mask_width(1, 1), 1);
  EXPECT_EQ(mask_width(2, 1), 0);
  EXPECT_EQ(mask_width(-1, 1), 1);

  // Width 63: everything but the sign bit. -1 is all ones, so masking off
  // bit 63 leaves the largest positive int64.
  EXPECT_EQ(mask_width(-1, 63), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(mask_width(std::int64_t{1} << 62, 63), std::int64_t{1} << 62);
  EXPECT_EQ(mask_width(std::int64_t{1} << 63, 63), 0);

  // Width 64 is a passthrough: the value — sign and all — is untouched.
  // (Shifting a u64 by 64 would be UB; the passthrough is the contract.)
  EXPECT_EQ(mask_width(-1, 64), -1);
  EXPECT_EQ(mask_width(std::numeric_limits<std::int64_t>::min(), 64),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(mask_width(12345, 64), 12345);

  // Non-positive widths are also passthrough, negative values included.
  EXPECT_EQ(mask_width(-7, 0), -7);
  EXPECT_EQ(mask_width(-7, -4), -7);
  EXPECT_EQ(mask_width(std::numeric_limits<std::int64_t>::min(), -1),
            std::numeric_limits<std::int64_t>::min());

  // Widths above 64 behave like 64.
  EXPECT_EQ(mask_width(-42, 65), -42);

  // A negative value through a clipping width keeps only its low bits.
  EXPECT_EQ(mask_width(-1, 8), 255);
  EXPECT_EQ(mask_width(-256, 8), 0);
}

// The same edges observed end to end: a width-1 array behaves as one bit,
// and negative memop results store their truncation.
TEST(Interp, MaskWidthEdgesThroughArrays) {
  Testbed tb(
      "global bit = new Array<<1>>(2);\n"
      "global bytes = new Array<<8>>(1);\n"
      "memop plus(int cur, int x) { return cur + x; }\n"
      "event e(int v);\n"
      "handle e(int v) {\n"
      "  Array.set(bit, 0, plus, v);\n"
      "  Array.set(bytes, 0, plus, v);\n"
      "}\n");
  ASSERT_TRUE(tb.ok()) << tb.diagnostics();
  tb.inject_and_run(1, "e", {3});
  EXPECT_EQ(tb.node(1).array("bit")->get(0), 1);    // 3 & 1
  EXPECT_EQ(tb.node(1).array("bytes")->get(0), 3);
  tb.inject_and_run(1, "e", {-4});
  // Injected args mask to the 32-bit param width first: -4 -> 0xFFFFFFFC.
  // bit: 1 + 0xFFFFFFFC stored mod 2 = 1; bytes: 3 + 0xFC = 0xFF mod 256.
  EXPECT_EQ(tb.node(1).array("bit")->get(0), 1);
  EXPECT_EQ(tb.node(1).array("bytes")->get(0), 0xFF);
}

// The multi-node record path, pinned: bench_fig15_recirc_uses's 20 ms run of
// every paper app on a 4-switch full mesh (ids 1, 2, 3, 9), replayed here
// with the same injections. Generates cross the fabric (net::Network) and
// multicast clones fan out per member, so any change to how an event packet
// is built, copied or carried shows up in these counts. The differential
// suite (tests/test_native.cpp) is single-node only.
TEST(Interp, Fig15MultiNodeCountsArePinned) {
  struct Expect {
    const char* app;
    std::uint64_t recirculations, forwarded, delivered, dropped;
    std::uint64_t executions[4];  // at switches 1, 2, 3, 9
  };
  const Expect table[] = {
      {"SFW", 1799, 0, 0, 0, {120, 0, 0, 0}},
      {"RR", 3598, 8, 8, 0, {8, 2, 2, 0}},
      {"DNS", 1799, 0, 0, 0, {70, 0, 0, 0}},
      {"StarFlow", 40, 20, 20, 0, {120, 0, 0, 20}},
      {"SRO", 0, 80, 80, 0, {60, 20, 20, 0}},
      {"DFW", 0, 40, 40, 0, {20, 20, 20, 0}},
      {"DFWA", 1799, 40, 40, 0, {40, 20, 20, 0}},
      {"RIP", 1799, 2, 2, 0, {2, 1, 1, 0}},
      {"NAT", 0, 0, 0, 0, {20, 0, 0, 0}},
      {"CM", 1799, 0, 0, 0, {70, 0, 0, 0}},
  };
  const int ids[] = {1, 2, 3, 9};
  for (const Expect& want : table) {
    SCOPED_TRACE(want.app);
    const apps::AppSpec& spec = apps::app(want.app);
    TestbedConfig cfg;
    cfg.switch_ids = {1, 2, 3, 9};
    Testbed tb(spec.source, cfg);
    ASSERT_TRUE(tb.ok()) << tb.diagnostics();
    Runtime& n1 = tb.node(1);
    const std::string key = spec.key;
    if (key == "SFW") {
      n1.inject("scan1", {0});
      for (const auto& f : workload::distinct_flows(100, 200, 3)) {
        n1.inject("pkt_out", {f.src, f.dst});
      }
    } else if (key == "RR") {
      n1.inject("probe_timer", {0});
      n1.inject("check_route", {0});
    } else if (key == "DNS") {
      n1.inject("decay_step", {0});
      for (int i = 0; i < 50; ++i) n1.inject("dns_req", {7, 8, i});
    } else if (key == "StarFlow") {
      for (int f = 0; f < 20; ++f) {
        for (int s = 0; s < 4; ++s) n1.inject("pkt", {f + 100, s});
      }
    } else if (key == "SRO") {
      for (int i = 0; i < 20; ++i) n1.inject("write", {i, i * 7});
    } else if (key == "DFW" || key == "DFWA") {
      for (int i = 0; i < 20; ++i) n1.inject("pkt_out", {i + 1, i + 50});
      if (key == "DFWA") n1.inject("age_step", {0});
    } else if (key == "RIP") {
      n1.inject("boot", {0});
      n1.inject("adv_timer", {0});
    } else if (key == "NAT") {
      for (int i = 0; i < 20; ++i) n1.inject("pkt_out", {i, 5000 + i});
    } else if (key == "CM") {
      for (int i = 0; i < 50; ++i) n1.inject("pkt", {i % 9});
      n1.inject("export_step", {0});
    }
    tb.settle(20 * sim::kMs);
    std::uint64_t recirculations = 0;
    std::uint64_t forwarded = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      recirculations += tb.switch_at(ids[k]).recirculations();
      forwarded += tb.sched_at(ids[k]).stats().forwarded;
      EXPECT_EQ(tb.node(ids[k]).stats().total_executions, want.executions[k])
          << "switch " << ids[k];
    }
    EXPECT_EQ(recirculations, want.recirculations);
    EXPECT_EQ(forwarded, want.forwarded);
    EXPECT_EQ(tb.network().delivered(), want.delivered);
    EXPECT_EQ(tb.network().dropped(), want.dropped);
  }
}


// The arity rule: an event packet record carries kMaxArgs argument words,
// so a program declaring a wider event is refused with a diagnostic, by the
// Testbed and by the interp backend alike, never run with its arguments
// cut. The P4 emitter has no such record and still emits the program.
TEST(Interp, EventsWiderThanThePacketRecordAreRefused) {
  std::string params;
  for (int i = 0; i <= native::kMaxArgs; ++i) {
    params += (i > 0 ? ", int a" : "int a") + std::to_string(i);
  }
  const std::string source = "global out = new Array<<32>>(4);\n"
                             "event wide(" + params + ");\n"
                             "handle wide(" + params + ") {\n"
                             "  Array.set(out, 0, a" +
                             std::to_string(native::kMaxArgs) + ");\n"
                             "}\n";
  const Testbed tb(source);
  EXPECT_FALSE(tb.ok());
  EXPECT_NE(tb.diagnostics().find("interp-too-many-params"),
            std::string::npos)
      << tb.diagnostics();

  register_default_backends();
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(source, Stage::Layout);
  ASSERT_TRUE(comp->ok()) << comp->diags().render();
  EXPECT_TRUE(driver.emit(comp, "p4").ok);
  EXPECT_FALSE(driver.emit(comp, "interp").ok);
  ASSERT_FALSE(comp->diags().all().empty());
  EXPECT_EQ(comp->diags().all().back().code, "interp-too-many-params");
}

}  // namespace
}  // namespace lucid::interp
