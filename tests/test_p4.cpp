// P4 backend tests: structural properties of the emitted Tofino-style P4 and
// the per-category LoC accounting that reproduces Figures 9/10 (for eBPF
// too: both emitters share support/linewriter.hpp).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "ebpf/emit.hpp"
#include "frontend/progen.hpp"
#include "p4/emit.hpp"
#include "support/strings.hpp"

namespace lucid::p4 {
namespace {

constexpr const char* kFigure6 = R"(
const int TCP = 6;
const int UDP = 17;
global nexthops = new Array<<32>>(64);
global pcts = new Array<<32>>(96);
global hcts = new Array<<32>>(64);
memop plus(int cur, int x) { return cur + x; }
event count_pkt(int dst, int proto);
handle count_pkt(int dst, int proto) {
  int idx = Array.get(nexthops, dst);
  if (proto != TCP) {
    if (proto == UDP) { idx = idx + 32; } else { idx = idx + 64; }
  }
  Array.set(pcts, idx, plus, 1);
  if (proto == TCP) { Array.set(hcts, dst, plus, 1); }
}
)";

P4Program emit_ok(std::string_view src, std::string_view name = "test") {
  const CompilerDriver driver;
  const CompilationPtr r = driver.run(src);
  EXPECT_TRUE(r->ok()) << r->diags().render();
  return emit(*r, name);
}

TEST(P4Emit, ContainsAllStructuralSections) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_NE(p.text.find("header lucid_event_h"), std::string::npos);
  EXPECT_NE(p.text.find("parser IngressParser"), std::string::npos);
  EXPECT_NE(p.text.find("control Ingress"), std::string::npos);
  EXPECT_NE(p.text.find("control Egress"), std::string::npos);
  EXPECT_NE(p.text.find("Switch(pipe) main;"), std::string::npos);
}

TEST(P4Emit, EventHeaderPerEvent) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_NE(p.text.find("header ev_count_pkt_h"), std::string::npos);
  EXPECT_NE(p.text.find("state parse_ev_count_pkt"), std::string::npos);
}

TEST(P4Emit, RegistersAndRegisterActions) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_NE(p.text.find("Register<bit<32>, bit<32>>(64) reg_nexthops"),
            std::string::npos);
  EXPECT_NE(p.text.find("Register<bit<32>, bit<32>>(96) reg_pcts"),
            std::string::npos);
  // The plus memop appears inside RegisterAction bodies as cell + arg.
  EXPECT_NE(p.text.find("RegisterAction"), std::string::npos);
  EXPECT_NE(p.text.find("cell = cell + 1;"), std::string::npos);
}

TEST(P4Emit, ConditionalMemopEmitsIfElseInRegisterAction) {
  const P4Program p = emit_ok(
      "global ts = new Array<<32>>(8);\n"
      "memop newer(int cur, int t) {\n"
      "  if (cur < t) { return t; } else { return cur; }\n"
      "}\n"
      "event e(int t);\n"
      "handle e(int t) { Array.set(ts, 0, newer, t); }\n");
  EXPECT_NE(p.text.find("if (cell < ig_md.t)"), std::string::npos);
}

TEST(P4Emit, UpdateAppliesBothMemopsToOldValue) {
  // Array.update's parallel get+set: both memops must see the pre-update
  // cell value ("old"), matching the interpreter and the sALU semantics.
  const P4Program p = emit_ok(
      "global seqs = new Array<<32>>(8);\n"
      "memop mget(int cur, int x) { return cur; }\n"
      "memop maxm(int cur, int x) {\n"
      "  if (cur < x) { return x; } else { return cur; }\n"
      "}\n"
      "event e(int s);\n"
      "handle e(int s) {\n"
      "  int old = Array.update(seqs, 0, mget, 0, maxm, s);\n"
      "}\n");
  EXPECT_NE(p.text.find("bit<32> old = cell;"), std::string::npos);
  // The conditional set memop tests the old value...
  EXPECT_NE(p.text.find("if (old < ig_md.s)"), std::string::npos);
  // ...and the get memop returns it.
  EXPECT_NE(p.text.find("rv = old;"), std::string::npos);
}

TEST(P4Emit, HashMaskFoldsIntoHashUnit) {
  // `hash(...) & (2^n - 1)` must not spend an ALU op: it folds into the
  // hash unit's output width, so no "& 255" appears in any action body.
  const P4Program p = emit_ok(
      "global t = new Array<<32>>(256);\n"
      "event e(int a);\n"
      "handle e(int a) {\n"
      "  int idx = hash(9, a) & 255;\n"
      "  int v = Array.get(t, idx);\n"
      "}\n");
  EXPECT_EQ(p.text.find("& 255"), std::string::npos);
}

TEST(P4Emit, GuardRulesBecomeConstEntries) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_NE(p.text.find("const entries"), std::string::npos);
  // The UDP guard value 17 appears in some entry.
  EXPECT_NE(p.text.find("17"), std::string::npos);
  EXPECT_NE(p.text.find("const default_action"), std::string::npos);
}

TEST(P4Emit, DispatcherCopiesEventParams) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_NE(p.text.find("action dispatch_count_pkt()"), std::string::npos);
  EXPECT_NE(p.text.find("ig_md.dst = hdr.ev_count_pkt.dst;"),
            std::string::npos);
  EXPECT_NE(p.text.find("table event_dispatch"), std::string::npos);
}

TEST(P4Emit, GenerateSitesProduceSerializerBlocks) {
  const P4Program p = emit_ok(
      "event ping(int x);\n"
      "event pong(int x);\n"
      "handle ping(int x) {\n"
      "  generate pong(x);\n"
      "  generate Event.delay(ping(x), 1ms);\n"
      "}\n"
      "handle pong(int x) { int y = x; }\n");
  // Two generate sites -> two out-header pairs and clone handling.
  EXPECT_NE(p.text.find("hdr.gen_0"), std::string::npos);
  EXPECT_NE(p.text.find("hdr.gen_1"), std::string::npos);
  EXPECT_NE(p.text.find("egress_rid"), std::string::npos);
  EXPECT_NE(p.text.find("LUCID_SERIALIZE_GRP"), std::string::npos);
}

TEST(P4Emit, LocCategoriesAllPopulated) {
  const P4Program p = emit_ok(kFigure6);
  EXPECT_GT(p.loc_by_category.at(LineCategory::Header), 10u);
  EXPECT_GT(p.loc_by_category.at(LineCategory::Parser), 10u);
  EXPECT_GT(p.loc_by_category.at(LineCategory::Action), 5u);
  EXPECT_GT(p.loc_by_category.at(LineCategory::RegisterAction), 10u);
  EXPECT_GT(p.loc_by_category.at(LineCategory::Table), 10u);
  EXPECT_GT(p.loc_by_category.at(LineCategory::Control), 10u);
  EXPECT_EQ(p.total_loc(), [&] {
    std::size_t n = 0;
    for (const auto& [c, v] : p.loc_by_category) n += v;
    return n;
  }());
}

TEST(P4Emit, GeneratedP4IsMuchLongerThanLucid) {
  // The core of the paper's Figure 9/10 claim: the same program needs far
  // more P4 than Lucid.
  const std::size_t lucid_loc = lucid::count_loc(kFigure6);
  const P4Program p = emit_ok(kFigure6);
  EXPECT_GE(p.total_loc(), 4 * lucid_loc);
}

TEST(P4Emit, LocTotalsEqualCountLocOfTheText) {
  // Emitters charge LoC as they write, some blocks once per repeat; the
  // totals must still be exactly count_loc of the text they produced. The
  // generated program has dozens of generate sites, so its serializer
  // repeats its all-sites block many times.
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const apps::AppSpec& spec : apps::all_apps()) {
    corpus.emplace_back(spec.key, spec.source);
  }
  frontend::ProgenConfig cfg;
  cfg.stmts_per_handler = 16;
  corpus.emplace_back("progen", frontend::generate_program(cfg));
  for (const auto& [name, source] : corpus) {
    SCOPED_TRACE(name);
    const CompilerDriver driver;
    const CompilationPtr r = driver.run(source);
    ASSERT_TRUE(r->ok()) << r->diags().render();
    const P4Program p = emit(*r, name);
    EXPECT_EQ(p.total_loc(), count_loc(p.text));
    const ebpf::XdpProgram x = ebpf::emit(*r, name);
    EXPECT_EQ(x.total_loc(), count_loc(x.text));
  }
}

TEST(P4Emit, DeterministicOutput) {
  const P4Program a = emit_ok(kFigure6);
  const P4Program b = emit_ok(kFigure6);
  EXPECT_EQ(a.text, b.text);
}

}  // namespace
}  // namespace lucid::p4
