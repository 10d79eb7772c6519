// The incremental front end: the decl-span scanner, AST splicing, the
// per-compilation span cache, the synthetic program generator, and the
// order of Sema's body-check diagnostics.
//
// The load-bearing guarantees:
//
//   * frontend::scan_decl_spans cuts a buffer into exactly one span per
//     top-level decl and refuses (nullopt) anything irregular — incremental
//     parse is an optimization, never a semantic fork;
//   * frontend::incremental_parse splices unchanged decls *by pointer* from
//     the previous AST (address-asserted) and re-parses only edited spans;
//   * CompilerDriver::recompile wires the splice in end to end: Parse's
//     decls_reused counts spliced nodes, Layout's counts handlers carried by
//     the patched Phase A analysis, and the artifacts stay byte-identical to
//     a cold compile — on the paper apps (test_incremental.cpp) and on
//     generated programs here;
//   * frontend::generate_program is deterministic (same config -> same
//     bytes, on every platform);
//   * Sema reports body-check errors in decl order (memops, then handlers
//     in declaration order), identically on every run.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/driver.hpp"
#include "frontend/incremental_parse.hpp"
#include "frontend/parser.hpp"
#include "frontend/progen.hpp"

#include "interp_fingerprint.hpp"

namespace lucid {
namespace {

using frontend::DeclKind;
using frontend::DeclSpan;
using frontend::Program;
using frontend::ProgenConfig;

BackendRegistry& test_registry() {
  static BackendRegistry registry = [] {
    BackendRegistry r;
    register_default_backends(r);
    return r;
  }();
  return registry;
}

Program parse_ok(const std::string& source) {
  DiagnosticEngine diags{source};
  Program p = frontend::Parser::parse(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return p;
}

std::string diag_transcript(const Compilation& comp) {
  std::string out;
  for (const Diagnostic& d : comp.diags().all()) {
    out += std::string(severity_name(d.severity)) + "|" + d.code + "|" +
           d.message + "\n";
  }
  return out;
}

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

// ---------------------------------------------------------------------------
// scan_decl_spans
// ---------------------------------------------------------------------------

TEST(DeclScanner, OneSpanPerDeclOnEveryApp) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const auto spans = frontend::scan_decl_spans(spec.source);
    ASSERT_TRUE(spans.has_value());
    const Program p = parse_ok(spec.source);
    ASSERT_EQ(spans->size(), p.decls.size());
    // Spans are in order, non-overlapping, and each covers its whole decl
    // (keyword byte through terminator byte).
    std::size_t prev_end = 0;
    for (const DeclSpan& s : *spans) {
      EXPECT_GE(s.begin, prev_end);
      EXPECT_LT(s.begin, s.end);
      prev_end = s.end;
      const char last = spec.source[s.end - 1];
      EXPECT_TRUE(last == ';' || last == '}') << spec.source.substr(s.begin, s.end - s.begin);
    }
  }
}

TEST(DeclScanner, HashCoversExactlyTheSpanBytes) {
  const auto before = frontend::scan_decl_spans(kChain);
  ASSERT_TRUE(before.has_value());
  // Editing one decl's body changes that span's hash and no other.
  std::string edited = kChain;
  const std::size_t at = edited.find("LIMIT = 10");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 10, "LIMIT = 99");
  const auto after = frontend::scan_decl_spans(edited);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(before->size(), after->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].hash != (*after)[i].hash, i == 0) << i;
  }
  // Pure comment/whitespace edits outside spans change no hash at all.
  const auto commented =
      frontend::scan_decl_spans("// leading\n" + std::string(kChain) +
                                "/* trailing */\n");
  ASSERT_TRUE(commented.has_value());
  ASSERT_EQ(commented->size(), before->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*commented)[i].hash, (*before)[i].hash) << i;
  }
}

TEST(DeclScanner, RefusesIrregularBuffers) {
  // Unterminated block comment.
  EXPECT_FALSE(frontend::scan_decl_spans("const int A = 1; /* oops").has_value());
  // Unknown leading keyword.
  EXPECT_FALSE(frontend::scan_decl_spans("typedef int x;").has_value());
  // A stray ';' between decls starts a span with an empty keyword.
  EXPECT_FALSE(
      frontend::scan_decl_spans("memop m(int c, int x) { return c; };\n")
          .has_value());
  // Unterminated decl (EOF before the closing brace).
  EXPECT_FALSE(frontend::scan_decl_spans("handle e(int i) { ").has_value());
  // Unbalanced closing brace.
  EXPECT_FALSE(frontend::scan_decl_spans("const int A = 1; }").has_value());
  // The empty buffer is regular: zero decls.
  const auto empty = frontend::scan_decl_spans("  // nothing\n");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// ---------------------------------------------------------------------------
// incremental_parse
// ---------------------------------------------------------------------------

TEST(IncrementalParse, SplicesEveryUntouchedDeclByPointer) {
  const std::string prev_src = kChain;
  const Program prev = parse_ok(prev_src);
  const auto prev_spans = frontend::scan_decl_spans(prev_src);
  ASSERT_TRUE(prev_spans.has_value());

  std::string edited = prev_src;
  const std::size_t h = edited.find("handle tick");
  const std::size_t brace = edited.find('{', h);
  edited.insert(brace + 1, " int __e = 3; ");

  DiagnosticEngine diags{edited};
  const auto inc = frontend::incremental_parse(edited, prev_src, *prev_spans,
                                               prev, diags);
  ASSERT_TRUE(inc.has_value());
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  ASSERT_EQ(inc->program.decls.size(), prev.decls.size());
  ASSERT_EQ(inc->spliced_from.size(), prev.decls.size());
  EXPECT_EQ(inc->reused, static_cast<int>(prev.decls.size()) - 1);
  EXPECT_EQ(inc->spans.size(), prev.decls.size());
  for (std::size_t i = 0; i < inc->program.decls.size(); ++i) {
    const bool edited_decl =
        inc->program.decls[i]->kind == DeclKind::Handler &&
        inc->program.decls[i]->name == "tick";
    EXPECT_EQ(inc->spliced_from[i] < 0, edited_decl) << i;
    if (!edited_decl) {
      // Spliced = the previous AST node itself, not a copy.
      EXPECT_EQ(inc->program.decls[i].get(),
                prev.decls[static_cast<std::size_t>(inc->spliced_from[i])].get());
    }
  }
}

TEST(IncrementalParse, RefusesAPrevSpanDeclMismatch) {
  const Program prev = parse_ok(kChain);
  std::vector<DeclSpan> wrong;  // size != prev.decls.size()
  DiagnosticEngine diags{kChain};
  EXPECT_FALSE(frontend::incremental_parse(kChain, kChain, wrong, prev, diags)
                   .has_value());
}

TEST(IncrementalParse, ReparsedSpansKeepWholeFilePositions) {
  // Break the *last* decl; the error's line must be its whole-file line,
  // not line 1 of the re-lexed span.
  std::string bad = kChain;
  const std::size_t at = bad.find("Array.set(b, i & MASK, plus, 1);");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at, "@ ");
  const Program prev = parse_ok(kChain);
  const auto prev_spans = frontend::scan_decl_spans(kChain);
  ASSERT_TRUE(prev_spans.has_value());
  DiagnosticEngine diags{bad};
  const auto inc =
      frontend::incremental_parse(bad, kChain, *prev_spans, prev, diags);
  ASSERT_TRUE(inc.has_value());
  ASSERT_TRUE(diags.has_errors());
  EXPECT_GE(diags.all().front().range.begin.line, 10u) << diags.render();
}

// ---------------------------------------------------------------------------
// The driver end of the splice
// ---------------------------------------------------------------------------

TEST(RecompileParse, SplicesAndCountsReusedDecls) {
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());

  std::string edited = kChain;
  edited.insert(edited.find('{', edited.find("handle tick")) + 1,
                " int __e = 3; ");
  const CompilationPtr rec = driver.recompile(prev, edited);
  ASSERT_TRUE(driver.run_until(rec, Stage::Layout)) << rec->diags().render();

  // Parse spliced all 9 untouched decls; the address-level proof: a clean
  // decl (the tock handler) is prev's node.
  EXPECT_EQ(rec->record(Stage::Parse).decls_reused, 9);
  const auto find_decl = [](const Program& p, DeclKind kind,
                            std::string_view name) -> const frontend::Decl* {
    for (const auto& d : p.decls) {
      if (d->kind == kind && d->name == name) return d.get();
    }
    return nullptr;
  };
  EXPECT_EQ(find_decl(rec->ast(), DeclKind::Handler, "tock"),
            find_decl(prev->ast(), DeclKind::Handler, "tock"));
  // The dirty decl was un-shared (re-parsed) before its body re-check.
  EXPECT_NE(find_decl(rec->ast(), DeclKind::Handler, "tick"),
            find_decl(prev->ast(), DeclKind::Handler, "tick"));

  // Layout's decls_reused counts the handlers the patched Phase A analysis
  // carried over: everything but the edited tick handler.
  EXPECT_EQ(rec->record(Stage::Layout).decls_reused, 1);
  // And the human `--time-passes` table surfaces the Parse reuse.
  EXPECT_NE(rec->timing_report().find("(reused 9 decls)"), std::string::npos)
      << rec->timing_report();
}

TEST(RecompileParse, ReCheckedSplicedDeclReportsWhereAColdCompileDoes) {
  // `handle other` is byte-identical across the edit, so it is spliced,
  // and the edit to `ev` dirties it. Its re-check reports against the new
  // buffer: line 4, where a cold compile of `after` reports, not line 3,
  // where the spliced node sat in `before`.
  const std::string before =
      "event ev(int<<32>> a);\n"
      "event other(int<<32>> a);\n"
      "handle other(int<<32>> a) { generate ev(a); }\n";
  const std::string after =
      "event ev(int<<32>> a,\n"
      "         int<<32>> b);\n"
      "event other(int<<32>> a);\n"
      "handle other(int<<32>> a) { generate ev(a); }\n";
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(before);
  ASSERT_TRUE(prev->ok()) << prev->diags().render();

  const CompilationPtr cold = driver.run(after);
  const CompilationPtr rec = driver.recompile(prev, after);
  ASSERT_FALSE(cold->ok());
  EXPECT_FALSE(rec->ok());
  EXPECT_EQ(rec->record(Stage::Parse).decls_reused, 2);
  EXPECT_EQ(cold->diags().all().front().range.begin.line, 4u);
  EXPECT_EQ(rec->diags().render(), cold->diags().render());
}

TEST(RecompileParse, SpanCacheIsSharedAcrossEdits) {
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());
  const auto* spans = prev->decl_spans();
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->size(), prev->ast().decls.size());
  // Same table object on every access (computed once).
  EXPECT_EQ(prev->decl_spans(), spans);

  // An incremental parse seeds the new compilation's cache with the table
  // it already scanned — becoming the next edit's prev costs no new scan.
  std::string edited = kChain;
  edited.insert(edited.find('{', edited.find("handle tick")) + 1,
                " int __e = 3; ");
  const CompilationPtr rec = driver.recompile(prev, edited);
  ASSERT_TRUE(rec->ok());
  const auto* rec_spans = rec->decl_spans();
  ASSERT_NE(rec_spans, nullptr);
  EXPECT_EQ(rec_spans->size(), rec->ast().decls.size());
}

TEST(RecompileParse, DeclInsertionAndDeletionStillSplice) {
  // The splice is by span content, not position: growing or shrinking the
  // decl list must still reuse every untouched decl.
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr prev = driver.run(kChain, Stage::Layout);
  ASSERT_TRUE(prev->ok());

  // Insert a brand-new const between existing decls: 10 spliced, 1 fresh.
  std::string grown = kChain;
  grown.insert(grown.find("global a"), "const int EXTRA = 7;\n");
  const CompilationPtr grec = driver.recompile(prev, grown);
  ASSERT_TRUE(driver.run_until(grec, Stage::Layout)) << grec->diags().render();
  EXPECT_EQ(grec->record(Stage::Parse).decls_reused, 10);
  EXPECT_EQ(grec->ast().decls.size(), 11u);

  // Delete the tock handler: all 9 survivors spliced.
  std::string shrunk = kChain;
  const std::string tock =
      "handle tock(int i) { Array.set(b, i & MASK, plus, 1); }\n";
  const std::size_t at = shrunk.find(tock);
  ASSERT_NE(at, std::string::npos);
  shrunk.erase(at, tock.size());
  const CompilationPtr srec = driver.recompile(prev, shrunk);
  ASSERT_TRUE(driver.run_until(srec, Stage::Layout)) << srec->diags().render();
  EXPECT_EQ(srec->record(Stage::Parse).decls_reused, 9);
  EXPECT_EQ(srec->ast().decls.size(), 9u);

  // Both still match cold compiles byte for byte.
  for (const std::string* src : {&grown, &shrunk}) {
    const CompilationPtr cold = driver.run(*src, Stage::Layout);
    ASSERT_TRUE(cold->ok());
    const CompilationPtr rec = *src == grown ? grec : srec;
    const BackendArtifact a = driver.emit(cold, "p4");
    const BackendArtifact b = driver.emit(rec, "p4");
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.text, b.text);
  }
}

// ---------------------------------------------------------------------------
// The synthetic program generator
// ---------------------------------------------------------------------------

TEST(Progen, DeterministicAcrossCallsAndSensitiveToTheSeed) {
  ProgenConfig cfg;
  cfg.handlers = 8;
  EXPECT_EQ(frontend::generate_program(cfg), frontend::generate_program(cfg));
  ProgenConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(frontend::generate_program(cfg),
            frontend::generate_program(other));
}

TEST(Progen, ScalesToATthousandDeclsAndStaysWellFormed) {
  ProgenConfig cfg;
  cfg.handlers = 490;  // 1002 decls with the default satellite counts
  const std::string src = frontend::generate_program(cfg);
  ASSERT_GE(cfg.decl_count(), 1000);
  const Program p = parse_ok(src);
  EXPECT_EQ(p.decls.size(), static_cast<std::size_t>(cfg.decl_count()));
  // And the span scanner agrees with the parser on every boundary.
  const auto spans = frontend::scan_decl_spans(src);
  ASSERT_TRUE(spans.has_value());
  EXPECT_EQ(spans->size(), p.decls.size());
}

TEST(Progen, GeneratedEditsMatchColdByteForByte) {
  // The differential gate on generated programs: small configs that fit the
  // 12-stage model, so emitted artifacts can be byte-compared end to end.
  struct Case {
    int handlers;
    int stmts;
    std::uint64_t seed;
    int edit_which;
  };
  for (const Case& tc : {Case{3, 6, 0x5eedULL, 1}, Case{4, 8, 77ULL, 3}}) {
    SCOPED_TRACE(testing::Message() << "handlers=" << tc.handlers
                                    << " seed=" << tc.seed);
    ProgenConfig cfg;
    cfg.handlers = tc.handlers;
    cfg.stmts_per_handler = tc.stmts;
    cfg.seed = tc.seed;
    cfg.arrays = 4;
    cfg.consts = 4;
    cfg.memops = 2;
    cfg.funs = 2;
    const std::string src = frontend::generate_program(cfg);
    const std::string edited =
        frontend::edit_one_handler(src, tc.edit_which);
    ASSERT_NE(src, edited);

    const CompilerDriver driver({}, &test_registry());
    const CompilationPtr prev = driver.run(src, Stage::Layout);
    ASSERT_TRUE(prev->ok()) << prev->diags().render();
    const CompilationPtr cold = driver.run(edited, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();
    const CompilationPtr rec = driver.recompile(prev, edited);
    ASSERT_TRUE(driver.run_until(rec, Stage::Layout)) << rec->diags().render();

    EXPECT_GT(rec->record(Stage::Parse).decls_reused, 0);
    EXPECT_GT(rec->record(Stage::Sema).decls_reused, 0);
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

// ---------------------------------------------------------------------------
// Sema diagnostic order
// ---------------------------------------------------------------------------

TEST(SemaDiagnostics, BodyErrorsAreReportedInDeclOrder) {
  // Errors in several decl bodies: every one is reported, in decl order.
  const std::string bad =
      "const int K = 3;\n"
      "global a = new Array<<32>>(8);\n"
      "memop m(int cur, int x) { return cur + nope1; }\n"
      "event e0(int i);\nevent e1(int i);\nevent e2(int i);\n"
      "handle e0(int i) { int v = nope2; }\n"
      "handle e1(int i) { Array.set(a, i & 7, m, K); }\n"
      "handle e2(int i) { int w = nope3 + nope4; }\n";
  const CompilerDriver driver(DriverOptions{}, &test_registry());
  std::string reference;
  for (int rep = 0; rep < 3; ++rep) {
    const CompilationPtr c = driver.run(bad, Stage::Sema);
    EXPECT_FALSE(c->ok());
    if (reference.empty()) reference = diag_transcript(*c);
    EXPECT_EQ(diag_transcript(*c), reference);
  }
  for (const char* name : {"nope1", "nope2", "nope3", "nope4"}) {
    EXPECT_NE(reference.find(name), std::string::npos) << name;
  }
  // nope2 (handler e0) before nope3 (handler e2).
  EXPECT_LT(reference.find("nope2"), reference.find("nope3"));
}

}  // namespace
}  // namespace lucid
