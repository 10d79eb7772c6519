// Structural fingerprints, the decl dependency graph, and the incremental
// edit pipeline.
//
// The load-bearing guarantees:
//
//   * frontend::structural_hash is whitespace/comment/formatting-INsensitive
//     and decl-content/decl-order-SENSITIVE (the cache.hpp contract);
//   * sema::plan_recompile dirties exactly the edited decls plus their
//     transitive dependents (and nothing it cannot prove clean);
//   * CompilerDriver::recompile produces artifacts byte-identical to a cold
//     compile of the edited source for every backend — including the
//     interpreter's observable runtime state — across all ten paper apps,
//     while StageRecord::decls_reused proves the reuse actually happened;
//   * the ArtifactCache serves formatting variants as plain hits and
//     misses decl edits and reorders;
//   * SweepEngine::fit bisects the smallest fitting resource model.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "frontend/fingerprint.hpp"
#include "frontend/parser.hpp"
#include "frontend/printer.hpp"
#include "frontend/progen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sema/depgraph.hpp"

#include "interp_fingerprint.hpp"

namespace lucid {
namespace {

using frontend::DeclFingerprint;
using frontend::DeclKind;
using frontend::Program;

BackendRegistry& test_registry() {
  static BackendRegistry registry = [] {
    BackendRegistry r;
    register_default_backends(r);
    return r;
  }();
  return registry;
}

DriverOptions app_options(const apps::AppSpec& spec) {
  DriverOptions opts;
  opts.program_name = spec.key;
  return opts;
}

Program parse_ok(const std::string& source) {
  DiagnosticEngine diags{source};
  Program p = frontend::Parser::parse(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return p;
}

/// A formatting-only variant: leading/trailing comments, a block comment,
/// and trailing spaces on every line. Parses to the identical program.
std::string ws_variant(const std::string& source) {
  std::string out = "// reformatted variant\n/* block\n   comment */\n";
  for (const char c : source) {
    if (c == '\n') out += "  \n";
    else out += c;
  }
  out += "\n// trailing comment\n";
  return out;
}

/// Inserts a harmless statement at the top of the first handler body: a
/// genuine structural edit confined to one decl.
std::string edit_first_handler(const std::string& source) {
  const std::size_t h = source.find("handle ");
  EXPECT_NE(h, std::string::npos);
  const std::size_t brace = source.find('{', h);
  EXPECT_NE(brace, std::string::npos);
  std::string out = source;
  out.insert(brace + 1, " int __zz_edit = 1 + 2; ");
  return out;
}

std::string diag_transcript(const Compilation& comp) {
  std::string out;
  for (const Diagnostic& d : comp.diags().all()) {
    out += std::string(severity_name(d.severity)) + "|" + d.code + "|" +
           d.message + "\n";
  }
  return out;
}

/// A small program exercising every decl kind and a const -> fun -> handler
/// dependency chain.
constexpr const char* kChain =
    "const int LIMIT = 10;\n"
    "const int MASK = 15;\n"
    "global a = new Array<<32>>(16);\n"
    "global b = new Array<<32>>(16);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "fun int bump(int v) { return v + LIMIT; }\n"
    "event tick(int i);\n"
    "event tock(int i);\n"
    "handle tick(int i) { Array.set(a, i & MASK, plus, bump(i)); }\n"
    "handle tock(int i) { Array.set(b, i & MASK, plus, 1); }\n";

/// kChain where `tick` also generates `tock`: the name `tock` there means
/// the event, though a handler of that name exists too.
constexpr const char* kGenChain =
    "const int LIMIT = 10;\n"
    "const int MASK = 15;\n"
    "global a = new Array<<32>>(16);\n"
    "global b = new Array<<32>>(16);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "fun int bump(int v) { return v + LIMIT; }\n"
    "event tick(int i);\n"
    "event tock(int i);\n"
    "handle tick(int i) {\n"
    "  Array.set(a, i & MASK, plus, bump(i));\n"
    "  generate tock(i);\n"
    "}\n"
    "handle tock(int i) { Array.set(b, i & MASK, plus, 1); }\n";

/// The dirty decls of `plan` over `next`, as "kind:name".
std::set<std::string> dirty_decls(const Program& next,
                                  const sema::RecompilePlan& plan) {
  std::set<std::string> dirty;
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    if (plan.reuse_from[i] < 0) {
      dirty.insert(std::string(frontend::decl_kind_name(
                       next.decls[i]->kind)) +
                   ":" + next.decls[i]->name);
    }
  }
  return dirty;
}

// ---------------------------------------------------------------------------
// Fingerprints and the canonical form
// ---------------------------------------------------------------------------

TEST(Fingerprint, FormattingVariantsShareTheStructuralHash) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const Program original = parse_ok(spec.source);
    const Program variant = parse_ok(ws_variant(spec.source));
    EXPECT_EQ(frontend::fingerprint_program(original),
              frontend::fingerprint_program(variant));
    EXPECT_EQ(frontend::structural_hash(original),
              frontend::structural_hash(variant));
  }
}

TEST(Fingerprint, EditChangesExactlyTheEditedDecl) {
  const Program before = parse_ok(kChain);
  const Program after = parse_ok(edit_first_handler(kChain));
  const auto fps_before = frontend::fingerprint_program(before);
  const auto fps_after = frontend::fingerprint_program(after);
  ASSERT_EQ(fps_before.size(), fps_after.size());
  int changed = 0;
  for (std::size_t i = 0; i < fps_before.size(); ++i) {
    EXPECT_EQ(fps_before[i].kind, fps_after[i].kind);
    EXPECT_EQ(fps_before[i].name, fps_after[i].name);
    if (fps_before[i].hash != fps_after[i].hash) {
      ++changed;
      EXPECT_EQ(fps_after[i].kind, DeclKind::Handler);
      EXPECT_EQ(fps_after[i].name, "tick");
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_NE(frontend::structural_hash(before),
            frontend::structural_hash(after));
}

TEST(Fingerprint, DeclOrderIsPartOfTheStructuralHash) {
  // Same decls, different order: every per-decl fingerprint is unchanged,
  // but the program key differs — declaration order is semantic (pipeline
  // stages for globals, wire ids for events).
  const std::string swapped =
      "const int MASK = 15;\n"
      "const int LIMIT = 10;\n" +
      std::string(kChain).substr(std::string(kChain).find("global a"));
  const Program original = parse_ok(kChain);
  const Program reordered = parse_ok(swapped);
  auto a = frontend::fingerprint_program(original);
  auto b = frontend::fingerprint_program(reordered);
  ASSERT_EQ(a.size(), b.size());
  const auto by_hash = [](const DeclFingerprint& x, const DeclFingerprint& y) {
    return x.hash < y.hash;
  };
  EXPECT_NE(frontend::structural_hash(original),
            frontend::structural_hash(reordered));
  std::sort(a.begin(), a.end(), by_hash);
  std::sort(b.begin(), b.end(), by_hash);
  EXPECT_EQ(a, b);  // the decl *set* is identical; only the order moved
}

// Reaches every printer branch: time literals in all four units, bool
// literals, unary/binary/call expressions, every statement kind (with and
// without `else`, `return` with and without a value, `mgenerate`), and
// every decl kind.
constexpr const char* kEveryPrinterBranch = R"(const int NS = 7ns;
const int US = 3us;
const int MS = 2ms;
const int SEC = 1s;
const bool ON = true;
const group PEERS = {1, 2};
group MORE = {3};
global arr = new Array<<16>>(8);
memop keep(int cur, int x) { if (cur == 0) { return x; } else { return cur; } }
fun int twice(int a) { int b = a + a; return b; }
fun void nop() { return; }
event tick(int<<16>> a);
handle tick(int<<16>> a) {
  int x = twice(a);
  x = -x;
  bool f = !(x == ~x);
  Array.set(arr, 0, keep, x);
  nop();
  if (f) { generate Event.delay(tick(x), US + 1500ns); } else { mgenerate Event.locate(tick(x), PEERS); }
  event e = tick(1);
  if (false) { generate e; }
  generate tick(1);
}
)";

TEST(Fingerprint, StructuralHashesMatchTheirGoldenValues) {
  // The artifact cache keys. Any change to the printed form or to the
  // fingerprint preimage changes them; these values were recorded before
  // fingerprints were computed from the printer's own bytes.
  const std::vector<std::pair<std::string, std::uint64_t>> apps_golden = {
      {"SFW", 0x3c395485257bfbcaull},      {"RR", 0xabe731811cf80d64ull},
      {"DNS", 0x7d35ee1e8badae5bull},      {"StarFlow", 0x6f66898ec4ca7b5full},
      {"SRO", 0xb903bbf460fb2956ull},      {"DFW", 0xdb89bd175049ef22ull},
      {"DFWA", 0xf70b78045de001b0ull},     {"RIP", 0x759ae9850febd6cfull},
      {"NAT", 0x3a2c82a51dcf2ee1ull},      {"CM", 0x75b339e40a86bc59ull},
  };
  ASSERT_EQ(apps::all_apps().size(), apps_golden.size());
  for (const auto& [key, golden] : apps_golden) {
    SCOPED_TRACE(key);
    EXPECT_EQ(frontend::structural_hash(parse_ok(apps::app(key).source)),
              golden);
  }

  frontend::ProgenConfig cfg;
  cfg.handlers = 240;  // 512 decls with the default satellite counts
  cfg.stmts_per_handler = 28;
  const Program progen = parse_ok(frontend::generate_program(cfg));
  ASSERT_EQ(progen.decls.size(), 512u);
  EXPECT_EQ(frontend::structural_hash(progen), 0xc5f4f4814cff1168ull);

  const Program every = parse_ok(kEveryPrinterBranch);
  ASSERT_EQ(every.decls.size(), 13u);
  EXPECT_EQ(frontend::structural_hash(every), 0xab0ebca30b176301ull);
}

TEST(Fingerprint, CanonicalPrintIsAFixedPoint) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const Program parsed = parse_ok(spec.source);
    const std::string canonical = frontend::canonical_print_program(parsed);
    const Program reparsed = parse_ok(canonical);
    EXPECT_TRUE(frontend::program_equal(parsed, reparsed));
    EXPECT_EQ(frontend::canonical_print_program(reparsed), canonical);
    EXPECT_EQ(frontend::structural_hash(parsed),
              frontend::structural_hash(reparsed));
  }
}

// ---------------------------------------------------------------------------
// DeclDepGraph and plan_recompile
// ---------------------------------------------------------------------------

TEST(DepGraph, EdgesFollowReferences) {
  const Program p = parse_ok(kChain);
  const sema::DeclDepGraph g = sema::DeclDepGraph::build(p);
  ASSERT_EQ(g.nodes.size(), 10u);

  const auto index_of = [&](DeclKind kind, std::string_view name) {
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.nodes[i].kind == kind && g.nodes[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  const int limit = index_of(DeclKind::Const, "LIMIT");
  const int bump = index_of(DeclKind::Fun, "bump");
  const int tick_h = index_of(DeclKind::Handler, "tick");
  const int tick_e = index_of(DeclKind::Event, "tick");
  const int arr_a = index_of(DeclKind::Global, "a");
  const int plus = index_of(DeclKind::Memop, "plus");

  const auto uses = [&](int from, int to) {
    const auto& u = g.nodes[static_cast<std::size_t>(from)].uses;
    return std::find(u.begin(), u.end(), to) != u.end();
  };
  EXPECT_TRUE(uses(bump, limit));     // fun body reads the const
  EXPECT_TRUE(uses(tick_h, bump));    // handler calls the fun
  EXPECT_TRUE(uses(tick_h, arr_a));   // handler touches the array
  EXPECT_TRUE(uses(tick_h, plus));    // handler names the memop
  EXPECT_TRUE(uses(tick_h, tick_e));  // handler is bound to its event
  EXPECT_FALSE(uses(bump, arr_a));

  // Editing LIMIT must transitively dirty bump and the tick handler.
  const std::vector<int> closure = g.dependents_closure({limit});
  const std::set<int> dirty(closure.begin(), closure.end());
  EXPECT_TRUE(dirty.count(limit));
  EXPECT_TRUE(dirty.count(bump));
  EXPECT_TRUE(dirty.count(tick_h));
  EXPECT_FALSE(dirty.count(plus));
  EXPECT_FALSE(dirty.count(arr_a));
}

TEST(Plan, FormattingOnlyEditIsIdentical) {
  const Program prev = parse_ok(kChain);
  const Program next = parse_ok(ws_variant(kChain));
  const sema::RecompilePlan plan = sema::plan_recompile(prev, next);
  EXPECT_TRUE(plan.identical);
  EXPECT_EQ(plan.reused(), 10u);
  EXPECT_EQ(plan.dirty(), 0u);
}

TEST(Plan, HandlerEditDirtiesOnlyThatHandler) {
  const Program prev = parse_ok(kChain);
  const Program next = parse_ok(edit_first_handler(kChain));
  const sema::RecompilePlan plan = sema::plan_recompile(prev, next);
  EXPECT_FALSE(plan.identical);
  EXPECT_EQ(plan.dirty(), 1u);
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    const bool is_tick_handler = next.decls[i]->kind == DeclKind::Handler &&
                                 next.decls[i]->name == "tick";
    EXPECT_EQ(plan.reuse_from[i] < 0, is_tick_handler) << i;
  }
}

TEST(Plan, ConstEditDirtiesTransitiveDependents) {
  std::string edited = kChain;
  const std::size_t at = edited.find("LIMIT = 10");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 10, "LIMIT = 11");
  const Program next = parse_ok(edited);
  const sema::RecompilePlan plan = sema::plan_recompile(parse_ok(kChain), next);
  // LIMIT itself, the fun reading it, and the handler calling that fun —
  // nothing else.
  EXPECT_EQ(dirty_decls(next, plan),
            (std::set<std::string>{"const:LIMIT", "fun:bump",
                                   "handler:tick"}));
}

TEST(Plan, GeneratedHandlerEditDirtiesOnlyThatHandler) {
  // `generate tock(i)` in tick names the event, not handler tock's body:
  // editing that body must not spread to its generator.
  std::string edited = kGenChain;
  const std::string head = "handle tock(int i) {";
  const std::size_t at = edited.find(head);
  ASSERT_NE(at, std::string::npos);
  edited.insert(at + head.size(), " int __zz_edit = 1 + 2; ");
  const Program next = parse_ok(edited);
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kGenChain), next);
  EXPECT_EQ(plan.dirty(), 1u);
  EXPECT_EQ(dirty_decls(next, plan),
            (std::set<std::string>{"handler:tock"}));
}

TEST(Plan, GeneratedEventSignatureEditDirtiesHandlerAndGenerator) {
  // The event itself is still a reference target: its handler (bound by
  // name) and every generator of it must re-check.
  std::string edited = kGenChain;
  const std::string sig = "event tock(int i);";
  const std::size_t at = edited.find(sig);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, sig.size(), "event tock(int i, int j);");
  const Program next = parse_ok(edited);
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kGenChain), next);
  EXPECT_EQ(dirty_decls(next, plan),
            (std::set<std::string>{"event:tock", "handler:tock",
                                   "handler:tick"}));
}

TEST(Plan, GlobalInsertionDirtiesShiftedGlobalsAndTheirUsers) {
  // Insert a new array before `b`: `a` keeps ordinal 0 (clean), `b` shifts
  // to ordinal 2 (dirty — its pipeline stage moved), and so does the tock
  // handler that touches it. `tick` (only touches `a`) stays clean.
  std::string edited = kChain;
  const std::size_t at = edited.find("global b");
  ASSERT_NE(at, std::string::npos);
  edited.insert(at, "global mid = new Array<<32>>(8);\n");
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kChain), parse_ok(edited));
  const Program next = parse_ok(edited);
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    SCOPED_TRACE(next.decls[i]->name);
    const std::string& name = next.decls[i]->name;
    const bool should_be_dirty =
        name == "mid" || name == "b" ||
        (next.decls[i]->kind == DeclKind::Handler && name == "tock");
    EXPECT_EQ(plan.reuse_from[i] < 0, should_be_dirty);
  }
}

TEST(Plan, EventReorderDirtiesHandlersOfShiftedEvents) {
  // Swapping the two event decls reassigns both wire ids: both handlers
  // (bound by name) must be dirtied even though no handler text changed.
  std::string edited = kChain;
  const std::size_t at = edited.find("event tick(int i);\nevent tock(int i);");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, std::string("event tick(int i);\nevent tock(int i);").size(),
                 "event tock(int i);\nevent tick(int i);");
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kChain), parse_ok(edited));
  const Program next = parse_ok(edited);
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    SCOPED_TRACE(next.decls[i]->name);
    const bool should_be_dirty =
        next.decls[i]->kind == DeclKind::Event ||
        next.decls[i]->kind == DeclKind::Handler;
    EXPECT_EQ(plan.reuse_from[i] < 0, should_be_dirty);
  }
}

TEST(Plan, DeletedDeclDirtiesItsReferencers) {
  // Remove the memop: both handlers name it, so both must re-check (and
  // now fail sema) even though their own text is unchanged.
  std::string edited = kChain;
  const std::size_t at =
      edited.find("memop plus(int cur, int x) { return cur + x; }\n");
  ASSERT_NE(at, std::string::npos);
  edited.erase(at,
               std::string("memop plus(int cur, int x) "
                           "{ return cur + x; }\n").size());
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kChain), parse_ok(edited));
  const Program next = parse_ok(edited);
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    SCOPED_TRACE(next.decls[i]->name);
    EXPECT_EQ(plan.reuse_from[i] < 0,
              next.decls[i]->kind == DeclKind::Handler);
  }
}

// ---------------------------------------------------------------------------
// CompilerDriver::recompile — differential equivalence over the paper apps
// ---------------------------------------------------------------------------

TEST(Recompile, FormattingEditReusesEverythingPastParse) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const CompilerDriver driver(app_options(spec), &test_registry());
    const CompilationPtr prev = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(prev->ok()) << prev->diags().render();

    const std::string variant = ws_variant(spec.source);
    const CompilationPtr rec = driver.recompile(prev, variant);
    ASSERT_TRUE(rec->ok()) << rec->diags().render();
    EXPECT_EQ(rec->source(), variant);

    // 0 stages re-run past Parse: Sema, Lower, and Layout are all inherited
    // from prev — by address, not by equivalence.
    for (const Stage s : {Stage::Sema, Stage::Lower, Stage::Layout}) {
      EXPECT_TRUE(rec->record(s).shared) << stage_name(s);
    }
    EXPECT_EQ(&rec->ast(), &prev->ast());
    EXPECT_EQ(&rec->ir(), &prev->ir());
    EXPECT_EQ(&rec->pipeline(), &prev->pipeline());
    EXPECT_GT(rec->record(Stage::Sema).decls_reused, 0);

    // Byte-identical to a cold compile of the reformatted source.
    const CompilationPtr cold = driver.run(variant, Stage::Layout);
    ASSERT_TRUE(cold->ok());
    for (const char* backend : {"p4", "ebpf"}) {
      SCOPED_TRACE(backend);
      const BackendArtifact a = driver.emit(cold, backend);
      const BackendArtifact b = driver.emit(rec, backend);
      ASSERT_TRUE(a.ok && b.ok);
      EXPECT_EQ(a.text, b.text);
      EXPECT_EQ(a.metrics, b.metrics);
    }
  }
}

TEST(Recompile, OneHandlerEditMatchesColdByteForByte) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const CompilerDriver driver(app_options(spec), &test_registry());
    const CompilationPtr prev = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(prev->ok()) << prev->diags().render();

    const std::string edited = edit_first_handler(spec.source);
    const CompilationPtr cold = driver.run(edited, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();

    const CompilationPtr rec = driver.recompile(prev, edited);
    ASSERT_TRUE(driver.run_until(rec, Stage::Layout))
        << rec->diags().render();

    // The reuse actually happened: the dirty decl set is a strict subset.
    EXPECT_GT(rec->record(Stage::Sema).decls_reused, 0);
    EXPECT_FALSE(rec->record(Stage::Sema).shared);
    if (prev->ir().handlers.size() > 1) {
      EXPECT_GT(rec->record(Stage::Lower).decls_reused, 0);
    }

    // Byte-identical artifacts on both code-generating backends, identical
    // diagnostics, and identical interpreter behavior.
    for (const char* backend : {"p4", "ebpf"}) {
      SCOPED_TRACE(backend);
      const BackendArtifact a = driver.emit(cold, backend);
      const BackendArtifact b = driver.emit(rec, backend);
      ASSERT_TRUE(a.ok) << cold->diags().render();
      ASSERT_TRUE(b.ok) << rec->diags().render();
      EXPECT_EQ(a.text, b.text);
      EXPECT_EQ(a.metrics, b.metrics);
    }
    EXPECT_EQ(diag_transcript(*cold), diag_transcript(*rec));
    EXPECT_EQ(interp_fingerprint(cold), interp_fingerprint(rec));
  }
}

TEST(Recompile, ProgenOneHandlerEditsReuseEveryOtherDecl) {
  // A generated program whose handlers generate each other: a one-handler
  // edit re-checks one decl and re-lowers and re-analyzes one handler, and
  // still emits exactly what a cold compile does.
  frontend::ProgenConfig cfg;
  cfg.stmts_per_handler = 16;
  const std::string source = frontend::generate_program(cfg);
  DriverOptions opts;
  opts.program_name = "progen";
  const CompilerDriver driver(opts, &test_registry());
  const CompilationPtr prev = driver.run(source, Stage::Layout);
  ASSERT_TRUE(prev->ok()) << prev->diags().render();
  int sites = 0;
  for (const ir::HandlerGraph& h : prev->ir().handlers) {
    for (const ir::AtomicTable& t : h.tables) {
      sites += t.kind == ir::TableKind::Generate ? 1 : 0;
    }
  }
  ASSERT_GE(sites, 20);

  for (const int which : {0, 7, 19, 33, cfg.handlers - 1}) {
    SCOPED_TRACE(which);
    const std::string edited = frontend::edit_one_handler(source, which);
    const CompilationPtr rec = driver.recompile(prev, edited);
    ASSERT_TRUE(driver.run_until(rec, Stage::Layout))
        << rec->diags().render();
    EXPECT_EQ(rec->record(Stage::Sema).decls_reused, cfg.decl_count() - 1);
    EXPECT_EQ(rec->record(Stage::Lower).decls_reused, cfg.handlers - 1);
    EXPECT_EQ(rec->record(Stage::Layout).decls_reused, cfg.handlers - 1);

    const CompilationPtr cold = driver.run(edited, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();
    for (const char* backend : {"p4", "ebpf"}) {
      SCOPED_TRACE(backend);
      const BackendArtifact a = driver.emit(cold, backend);
      const BackendArtifact b = driver.emit(rec, backend);
      ASSERT_TRUE(a.ok) << cold->diags().render();
      ASSERT_TRUE(b.ok) << rec->diags().render();
      EXPECT_EQ(a.text, b.text);
      EXPECT_EQ(a.metrics, b.metrics);
    }
  }
}

TEST(Plan, DeletedEventWithSurvivingHandlerDirtiesTheHandler) {
  // Regression: deletion is judged per (kind, name), not per name. Deleting
  // an event whose same-named handler survives leaves the *name* present,
  // but the handler's binding is gone — it must re-check (and fail sema).
  std::string edited = kChain;
  const std::size_t at = edited.find("event tock(int i);\n");
  ASSERT_NE(at, std::string::npos);
  edited.erase(at, std::string("event tock(int i);\n").size());
  const sema::RecompilePlan plan =
      sema::plan_recompile(parse_ok(kChain), parse_ok(edited));
  const Program next = parse_ok(edited);
  bool tock_handler_dirty = false;
  for (std::size_t i = 0; i < next.decls.size(); ++i) {
    if (next.decls[i]->kind == DeclKind::Handler &&
        next.decls[i]->name == "tock") {
      tock_handler_dirty = plan.reuse_from[i] < 0;
    }
  }
  EXPECT_TRUE(tock_handler_dirty);

  // End to end: the incremental recompile must reject the program exactly
  // like a cold compile does.
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());
  const CompilationPtr cold = driver.run(edited, Stage::Layout);
  EXPECT_FALSE(cold->ok());
  const CompilationPtr rec = driver.recompile(prev, edited);
  EXPECT_FALSE(rec->ok());
  EXPECT_TRUE(rec->diags().has_code("sema-handler-without-event"));
}

TEST(Recompile, UntilBoundsHowDeepTheRecompileDrives) {
  // --stop-after must keep its meaning under --incremental-from: a
  // Parse-bounded recompile runs nothing past Parse (and skips the diff),
  // a Sema-bounded one stops before Lower.
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());
  const std::string edited = edit_first_handler(kChain);

  const CompilationPtr parse_only =
      driver.recompile(prev, edited, Stage::Parse);
  EXPECT_TRUE(parse_only->succeeded(Stage::Parse));
  EXPECT_FALSE(parse_only->ran(Stage::Sema));

  const CompilationPtr sema_deep = driver.recompile(prev, edited, Stage::Sema);
  EXPECT_TRUE(sema_deep->succeeded(Stage::Sema));
  EXPECT_GT(sema_deep->record(Stage::Sema).decls_reused, 0);
  EXPECT_FALSE(sema_deep->ran(Stage::Lower));

  // A formatting-only edit bounded at Sema clones prev at Sema — not
  // deeper.
  const CompilationPtr ws_sema =
      driver.recompile(prev, ws_variant(kChain), Stage::Sema);
  EXPECT_TRUE(ws_sema->succeeded(Stage::Sema));
  EXPECT_TRUE(ws_sema->record(Stage::Sema).shared);
  EXPECT_FALSE(ws_sema->ran(Stage::Lower));
}

TEST(Recompile, EditIntroducingAnErrorIsCaught) {
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());

  std::string bad = kChain;
  const std::size_t at = bad.find("Array.set(b, i & MASK, plus, 1);");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at, "oops = 1; ");
  const CompilationPtr rec = driver.recompile(prev, bad);
  EXPECT_FALSE(rec->ok());
  EXPECT_TRUE(rec->diags().has_code("sema-undefined"));
  // The untouched decls were still reused on the way to the error.
  EXPECT_GT(rec->record(Stage::Sema).decls_reused, 0);
}

TEST(Recompile, FallsBackToColdWithoutAUsablePrev) {
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr broken =
      driver.run("event e();\nhandle e() { y = 1; }\n", Stage::Layout);
  ASSERT_FALSE(broken->ok());

  const CompilationPtr rec = driver.recompile(broken, kChain);
  ASSERT_TRUE(rec->ok()) << rec->diags().render();
  EXPECT_TRUE(rec->succeeded(Stage::Lower));
  EXPECT_EQ(rec->record(Stage::Sema).decls_reused, 0);
  EXPECT_FALSE(rec->record(Stage::Sema).shared);

  const CompilationPtr rec2 = driver.recompile(nullptr, kChain);
  ASSERT_TRUE(rec2->ok());
  EXPECT_TRUE(rec2->succeeded(Stage::Lower));
}

TEST(Recompile, DifferentModelReusesFrontEndButRerunsLayout) {
  const apps::AppSpec& spec = apps::app("SFW");
  const CompilerDriver tofino(app_options(spec), &test_registry());
  const CompilationPtr prev = tofino.run(spec.source, Stage::Layout);
  ASSERT_TRUE(prev->ok());

  DriverOptions small = app_options(spec);
  small.model.max_stages = 4;
  const CompilerDriver shrunk(small, &test_registry());
  const CompilationPtr rec =
      shrunk.recompile(prev, ws_variant(spec.source));
  ASSERT_TRUE(shrunk.run_until(rec, Stage::Layout) || true);
  // Front end inherited; Layout re-ran under the new model (prev's Layout
  // fingerprint does not match) and reached a different verdict.
  EXPECT_TRUE(rec->record(Stage::Lower).shared);
  EXPECT_FALSE(rec->record(Stage::Layout).shared);
  EXPECT_TRUE(prev->layout_stats().fits);
  EXPECT_FALSE(rec->pipeline().fits);
  // The model-independent analysis is still shared with prev, by address.
  EXPECT_EQ(&rec->layout_analysis(), &prev->layout_analysis());
}

TEST(Recompile, JsonTimingExposesDeclsReused) {
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());
  const CompilationPtr rec =
      driver.recompile(prev, edit_first_handler(kChain));
  ASSERT_TRUE(driver.run_until(rec, Stage::Layout));
  const std::string json = rec->timing_report_json();
  EXPECT_NE(json.find("\"decls_reused\": 9"), std::string::npos) << json;
}

/// Complete spans in a Chrome trace named `name` in category `cat`.
std::size_t count_spans(const std::string& trace, const std::string& cat,
                        const std::string& name) {
  const std::string key =
      "\"name\": \"" + name + "\", \"cat\": \"" + cat + "\"";
  std::size_t n = 0;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Recompile, EveryStageRunsThroughTheStageRunner) {
  // A partial recompile's Sema and Lower are ordinary stage runs: a traced
  // cold compile plus a one-handler edit records two compiler spans per
  // stage, and the registry's per-stage instruments see both runs and the
  // edit's reuse.
  obs::Registry& reg = obs::Registry::global();
  const auto runs = [&](const char* stage) {
    return reg.histogram("lucid_compiler_stage_ns", {{"stage", stage}})
        .count();
  };
  const auto reused = [&](const char* stage) {
    return reg
        .counter("lucid_compiler_decls_reused_total", {{"stage", stage}})
        .value();
  };
  const std::uint64_t sema_runs = runs("sema");
  const std::uint64_t lower_runs = runs("lower");
  const std::uint64_t sema_reused = reused("sema");
  const std::uint64_t lower_reused = reused("lower");

  const CompilerDriver driver({}, &test_registry());
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.disable();
  tracer.clear();
  tracer.enable();
  const CompilationPtr prev = driver.run(kChain, Stage::Lower);
  const CompilationPtr rec =
      driver.recompile(prev, edit_first_handler(kChain));
  tracer.disable();
  const std::string trace = tracer.chrome_json();
  tracer.clear();
  ASSERT_TRUE(rec->succeeded(Stage::Lower)) << rec->diags().render();
  ASSERT_GT(rec->record(Stage::Sema).decls_reused, 0);

  for (const char* stage : {"parse", "sema", "lower"}) {
    EXPECT_EQ(count_spans(trace, "compiler", stage), 2u) << stage;
  }
  EXPECT_EQ(runs("sema") - sema_runs, 2u);
  EXPECT_EQ(runs("lower") - lower_runs, 2u);
  EXPECT_EQ(reused("sema") - sema_reused,
            static_cast<std::uint64_t>(rec->record(Stage::Sema).decls_reused));
  EXPECT_EQ(reused("lower") - lower_reused,
            static_cast<std::uint64_t>(rec->record(Stage::Lower).decls_reused));
}

// ---------------------------------------------------------------------------
// ArtifactCache structural keying (the cache.hpp side-by-side contract)
// ---------------------------------------------------------------------------

/// Current value of a lucid_artifact_cache_<what>_total counter.
std::uint64_t cache_count(const std::string& what) {
  return obs::Registry::global()
      .counter("lucid_artifact_cache_" + what + "_total")
      .value();
}

std::string fresh_cache_dir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/lucid-" + name + "-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(StructuralCache, DeclEditAndDeclReorderAreMisses) {
  // The regression pinning the key's contract: whitespace/comment
  // INsensitive (below), decl-content and decl-order SENSITIVE (here).
  const std::string dir = fresh_cache_dir("decl-edit-cache");
  const ArtifactCache cache(dir);
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr base = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(base->ok());
  const BackendArtifact emitted = driver.emit(base, "p4");
  ASSERT_TRUE(emitted.ok);
  cache.store_artifact(*base, emitted);

  const std::string swapped =
      "const int MASK = 15;\n"
      "const int LIMIT = 10;\n" +
      std::string(kChain).substr(std::string(kChain).find("global a"));
  const std::uint64_t hits = cache_count("hits");
  const std::uint64_t misses = cache_count("misses");
  for (const std::string& variant : {edit_first_handler(kChain), swapped}) {
    const CompilationPtr comp = driver.run(variant, Stage::Parse);
    ASSERT_TRUE(comp->ok());
    EXPECT_NE(comp->structural_hash(), base->structural_hash());
    EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());
  }
  EXPECT_EQ(cache_count("misses"), misses + 2);
  EXPECT_EQ(cache_count("hits"), hits);
  std::filesystem::remove_all(dir);
}

TEST(StructuralCache, DiskLayerServesFormattingVariants) {
  const std::string dir = fresh_cache_dir("structural-cache");

  const apps::AppSpec& spec = apps::app("SFW");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact emitted = driver.emit(comp, "p4");
  ASSERT_TRUE(emitted.ok);

  const ArtifactCache cache(dir);
  const std::uint64_t writes = cache_count("writes");
  cache.store_artifact(*comp, emitted);
  EXPECT_EQ(cache_count("writes"), writes + 1);

  // Loading under a reformatted source finds the same entry (structural
  // key), byte-identically.
  const CompilationPtr variant =
      driver.run(ws_variant(spec.source), Stage::Parse);
  const auto loaded = cache.load_artifact(*variant, "p4");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->text, emitted.text);

  // Storing the variant maps to the same file: still one disk entry.
  cache.store_artifact(*variant, emitted);
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  // An edited program is a different key: a miss.
  EXPECT_FALSE(
      cache
          .load_artifact(
              *driver.run(edit_first_handler(spec.source), Stage::Parse),
              "p4")
          .has_value());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Auto-fitting
// ---------------------------------------------------------------------------

TEST(Fit, SpecParserAcceptsRangesAndRejectsMalformedSpecs) {
  std::string error;
  const auto spec = parse_fit_spec("stages=1..20;salus=2,4", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->search_field, "stages");
  EXPECT_EQ(spec->lo, 1);
  EXPECT_EQ(spec->hi, 20);
  ASSERT_EQ(spec->base.size(), 2u);
  EXPECT_EQ(spec->base[0].label, "salus=2");
  EXPECT_EQ(spec->base[1].label, "salus=4");

  EXPECT_FALSE(parse_fit_spec("", &error).has_value());
  EXPECT_FALSE(parse_fit_spec("stages=4,8", &error).has_value());
  EXPECT_NE(error.find("MIN..MAX"), std::string::npos);
  EXPECT_FALSE(parse_fit_spec("stages=1..4;salus=1..2", &error).has_value());
  EXPECT_NE(error.find("more than one"), std::string::npos);
  EXPECT_FALSE(parse_fit_spec("stages=9..3", &error).has_value());
  EXPECT_FALSE(parse_fit_spec("bogus=1..2", &error).has_value());
  EXPECT_FALSE(parse_fit_spec("stages=0..4", &error).has_value());
  EXPECT_FALSE(parse_fit_spec("stages=1..4;stages=2,3", &error).has_value());
}

TEST(Fit, BisectionMatchesALinearScan) {
  const apps::AppSpec& spec = apps::app("SFW");
  FitOptions opts;
  opts.spec = *parse_fit_spec("stages=1..20");
  opts.program_name = spec.key;
  const FitReport report =
      SweepEngine(&test_registry()).fit(spec.source, opts);
  ASSERT_TRUE(report.ok) << report.str();
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_TRUE(report.all_fit);

  // Ground truth by exhaustive scan.
  int smallest = -1;
  for (int stages = 1; stages <= 20 && smallest < 0; ++stages) {
    DriverOptions dopts = app_options(spec);
    dopts.model.max_stages = stages;
    const CompilationPtr cold =
        CompilerDriver(dopts, &test_registry()).run(spec.source);
    ASSERT_TRUE(cold->ok());
    if (cold->layout_stats().fits) smallest = stages;
  }
  ASSERT_GT(smallest, 0);
  EXPECT_EQ(report.rows[0].fitted, smallest);
  // Bisection: at most 1 (range probe) + ceil(log2(20)) = 6 layout runs.
  EXPECT_LE(report.rows[0].probed.size(), 6u);
  EXPECT_EQ(report.rows[0].model.max_stages, smallest);
}

TEST(Fit, RangesWithoutAFitReportNone) {
  const apps::AppSpec& spec = apps::app("SFW");  // needs ~12 Tofino stages
  FitOptions opts;
  opts.spec = *parse_fit_spec("stages=1..4;salus=2,4");
  opts.program_name = spec.key;
  const FitReport report =
      SweepEngine(&test_registry()).fit(spec.source, opts);
  ASSERT_TRUE(report.ok) << report.str();
  EXPECT_FALSE(report.all_fit);
  ASSERT_EQ(report.rows.size(), 2u);
  for (const FitRow& row : report.rows) {
    EXPECT_EQ(row.fitted, -1);
    EXPECT_EQ(row.probed.size(), 1u);  // the hi probe settles it
  }
  EXPECT_NE(report.str().find("none"), std::string::npos);
}

TEST(Fit, FrontEndFailureShortCircuits) {
  FitOptions opts;
  opts.spec = *parse_fit_spec("stages=1..8");
  const FitReport report = SweepEngine(&test_registry())
                               .fit("event e();\nhandle e() { y = 1; }\n",
                                    opts);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.frontend_diagnostics.empty());
}

}  // namespace
}  // namespace lucid
