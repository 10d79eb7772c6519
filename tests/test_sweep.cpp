// Sweep-engine, artifact-cache, and differential-equivalence tests.
//
// The load-bearing guarantee: a compilation that reuses cached/cloned
// front-end artifacts is *observably identical* to a cold compile — same
// backend artifact bytes, same metrics, same diagnostics, and the same
// interpreter behavior — while the sweep engine pays for Parse/Sema/Lower
// exactly once across any number of resource-model variants.
//
// This file carries the "concurrency" CTest label: the debug-tsan preset
// (ThreadSanitizer) runs these tests to race sweeps, layouts and recompiles
// over one shared front end from several caller threads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "interp/runtime.hpp"
#include "pisa/switch.hpp"
#include "sim/simulator.hpp"
#include "support/parallel.hpp"

namespace lucid {
namespace {

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

/// Renders diagnostics into a comparable transcript (severity/code/message
/// in order).
std::string diag_transcript(const Compilation& comp) {
  std::string out;
  for (const Diagnostic& d : comp.diags().all()) {
    out += std::string(severity_name(d.severity)) + "|" + d.code + "|" +
           d.message + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Grid-spec parser
// ---------------------------------------------------------------------------

TEST(SweepGrid, EmptySpecIsTheDefaultModel) {
  const auto variants = parse_sweep_grid("");
  ASSERT_TRUE(variants.has_value());
  ASSERT_EQ(variants->size(), 1u);
  EXPECT_EQ(variants->front().label, "tofino");
  EXPECT_EQ(variants->front().model.max_stages,
            opt::ResourceModel::tofino().max_stages);
}

TEST(SweepGrid, CrossProductOverTwoFields) {
  const auto variants = parse_sweep_grid("stages=8,12;salus=2,4");
  ASSERT_TRUE(variants.has_value());
  ASSERT_EQ(variants->size(), 4u);
  std::set<std::string> labels;
  for (const auto& v : *variants) labels.insert(v.label);
  EXPECT_TRUE(labels.count("stages=8,salus=2"));
  EXPECT_TRUE(labels.count("stages=12,salus=4"));
  for (const auto& v : *variants) {
    EXPECT_TRUE(v.model.max_stages == 8 || v.model.max_stages == 12);
    EXPECT_TRUE(v.model.salus_per_stage == 2 || v.model.salus_per_stage == 4);
    // Unlisted fields keep the Tofino defaults.
    EXPECT_EQ(v.model.rules_per_table,
              opt::ResourceModel::tofino().rules_per_table);
  }
}

TEST(SweepGrid, MalformedSpecsAreRejectedWithAMessage) {
  std::string error;
  EXPECT_FALSE(parse_sweep_grid("bogus=1", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(parse_sweep_grid("stages=", &error).has_value());
  EXPECT_FALSE(parse_sweep_grid("stages=0", &error).has_value());
  EXPECT_FALSE(parse_sweep_grid("stages=abc", &error).has_value());
  EXPECT_FALSE(parse_sweep_grid("=4", &error).has_value());
  // A repeated field would silently overwrite earlier values.
  EXPECT_FALSE(parse_sweep_grid("stages=8,12;stages=4", &error).has_value());
  EXPECT_NE(error.find("more than once"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Differential equivalence: cached/cloned == cold, for every paper app
// ---------------------------------------------------------------------------

TEST(Differential, ClonedCompileProducesByteIdenticalArtifacts) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const CompilerDriver driver(app_options(spec), &test_registry());

    const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();

    ArtifactCache cache;  // keep_stage = Lower
    const CompilationPtr warmup = cache.compile(driver, spec.source);
    ASSERT_TRUE(warmup->ok());
    const CompilationPtr cached = cache.compile(driver, spec.source);
    ASSERT_TRUE(cached->ok());
    ASSERT_TRUE(cached->is_clone());
    EXPECT_TRUE(cached->record(Stage::Parse).shared);
    EXPECT_FALSE(cached->record(Stage::Layout).ran);
    ASSERT_TRUE(driver.run_until(cached, Stage::Layout));
    EXPECT_FALSE(cached->record(Stage::Layout).shared);

    // Identical layout results and middle-end diagnostics.
    EXPECT_EQ(cold->layout_stats().optimized_stages,
              cached->layout_stats().optimized_stages);
    EXPECT_EQ(cold->layout_stats().unoptimized_stages,
              cached->layout_stats().unoptimized_stages);
    EXPECT_EQ(cold->pipeline().array_stage, cached->pipeline().array_stage);
    EXPECT_EQ(diag_transcript(*cold), diag_transcript(*cached));

    // Byte-identical backend artifacts with identical metrics.
    for (const char* backend : {"p4", "ebpf", "interp"}) {
      SCOPED_TRACE(backend);
      const BackendArtifact a = driver.emit(cold, backend);
      const BackendArtifact b = driver.emit(cached, backend);
      ASSERT_TRUE(a.ok) << cold->diags().render();
      ASSERT_TRUE(b.ok) << cached->diags().render();
      EXPECT_EQ(a.text, b.text);
      EXPECT_EQ(a.metrics, b.metrics);
    }
    EXPECT_EQ(diag_transcript(*cold), diag_transcript(*cached));
  }
}

/// Builds a fresh simulated switch for `comp`, injects a deterministic event
/// schedule, and fingerprints the observable state: every register-array
/// cell plus the execution/generation counters.
std::string interp_fingerprint(const ConstCompilationPtr& comp) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler node(sw, {});
  interp::Runtime runtime(comp, node);

  int salt = 1;
  for (const ir::EventInfo& ev : comp->ir().events) {
    if (!ev.has_handler) continue;
    for (int round = 0; round < 3; ++round) {
      std::vector<interp::Value> args;
      args.reserve(ev.params.size());
      for (std::size_t p = 0; p < ev.params.size(); ++p) {
        args.push_back((salt * 37 + static_cast<int>(p) * 11 + round) % 251);
      }
      runtime.inject(ev.name, std::move(args));
      ++salt;
    }
  }
  simulator.run_until(5 * sim::kMs);

  std::string fp;
  for (const ir::ArrayInfo& arr : comp->ir().arrays) {
    const pisa::RegisterArray* ra = runtime.array(arr.name);
    fp += arr.name + ":";
    for (std::int64_t i = 0; i < ra->size(); ++i) {
      fp += std::to_string(ra->get(i)) + ",";
    }
    fp += ";";
  }
  for (const auto& [ev, n] : runtime.stats().executions) {
    fp += "x " + ev + "=" + std::to_string(n) + ";";
  }
  for (const auto& [ev, n] : runtime.stats().generated) {
    fp += "g " + ev + "=" + std::to_string(n) + ";";
  }
  return fp;
}

TEST(Differential, LayoutAnalysisIsSharedByAddressAcrossVariants) {
  // The StageRecord::shared-style proof for Phase A: every variant cloned
  // from one front end resolves to the *same* LayoutAnalysis object (address
  // equality, not equivalence), its Layout record carries analysis_shared,
  // and its pipeline pins that same object — while a cold compile owns its
  // analysis itself.
  const apps::AppSpec& spec = apps::app("SFW");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr base = driver.run(spec.source, Stage::Lower);
  ASSERT_TRUE(base->ok()) << base->diags().render();

  DriverOptions small = app_options(spec);
  small.model.max_stages = 8;
  DriverOptions tight = app_options(spec);
  tight.model.salus_per_stage = 2;

  // Before anyone computes it: a clone that triggers the donor's analysis
  // itself pays the cost, so its record must NOT claim analysis_shared.
  EXPECT_FALSE(base->analysis_ready());
  const CompilationPtr early = base->clone_from_stage(Stage::Lower, small);
  ASSERT_NE(early, nullptr);
  ASSERT_TRUE(CompilerDriver(small, &test_registry())
                  .run_until(early, Stage::Layout));
  EXPECT_FALSE(early->record(Stage::Layout).analysis_shared);
  EXPECT_TRUE(base->analysis_ready());  // ... but it landed on the donor

  const CompilationPtr v1 = base->clone_from_stage(Stage::Lower, small);
  const CompilationPtr v2 = base->clone_from_stage(Stage::Lower, tight);
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  ASSERT_TRUE(CompilerDriver(small, &test_registry())
                  .run_until(v1, Stage::Layout));
  ASSERT_TRUE(CompilerDriver(tight, &test_registry())
                  .run_until(v2, Stage::Layout));

  EXPECT_EQ(v1->analysis_home(), base.get());
  EXPECT_EQ(v2->analysis_home(), base.get());
  EXPECT_EQ(&v1->layout_analysis(), &base->layout_analysis());
  EXPECT_EQ(&v2->layout_analysis(), &base->layout_analysis());
  EXPECT_TRUE(v1->record(Stage::Layout).analysis_shared);
  EXPECT_TRUE(v2->record(Stage::Layout).analysis_shared);
  EXPECT_EQ(v1->pipeline().analysis.get(), &base->layout_analysis());
  EXPECT_EQ(v2->pipeline().analysis.get(), &base->layout_analysis());

  // A cold compile computes (and owns) the analysis itself.
  const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(cold->ok());
  EXPECT_EQ(cold->analysis_home(), cold.get());
  EXPECT_FALSE(cold->record(Stage::Layout).analysis_shared);
  EXPECT_NE(&cold->layout_analysis(), &base->layout_analysis());
}

TEST(Differential, InterpResultsMatchBetweenColdAndClonedCompiles) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const CompilerDriver driver(app_options(spec), &test_registry());
    const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();

    const CompilationPtr clone = cold->clone_from_stage(Stage::Lower);
    ASSERT_NE(clone, nullptr);
    // The interpreter binds at Lower; the clone never re-ran the front end.
    EXPECT_TRUE(clone->record(Stage::Lower).shared);
    EXPECT_EQ(interp_fingerprint(cold), interp_fingerprint(clone));
  }
}

// ---------------------------------------------------------------------------
// ArtifactCache behavior
// ---------------------------------------------------------------------------

constexpr const char* kCounter =
    "global cnt = new Array<<32>>(16);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "event bump(int i);\n"
    "handle bump(int i) { Array.set(cnt, i & 15, plus, 1); }\n";

TEST(ArtifactCache, HitsShareTheFrontEndByAddress) {
  ArtifactCache cache;
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr first = cache.compile(driver, kCounter);
  const CompilationPtr second = cache.compile(driver, kCounter);
  ASSERT_TRUE(first->ok());
  ASSERT_TRUE(second->ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Both are clones of one master: the same AST and IR objects, not copies.
  ASSERT_TRUE(first->is_clone());
  ASSERT_TRUE(second->is_clone());
  EXPECT_EQ(&first->ast(), &second->ast());
  EXPECT_EQ(&first->ir(), &second->ir());
  EXPECT_NE(first.get(), second.get());
}

TEST(ArtifactCache, SourceChangeMissesOptionsChangeInvalidates) {
  // keep_stage = Layout makes the resource model part of the fingerprint.
  ArtifactCache cache(Stage::Layout);
  const CompilerDriver tofino({}, &test_registry());
  (void)cache.compile(tofino, kCounter);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Different bytes, same structure: a comment-only edit is a *hit* now
  // that the key is structural (PR 5); the entry count stays 1.
  bool hit = false;
  (void)cache.compile(tofino, std::string(kCounter) + "// edited\n", &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A structurally different program: a plain miss, new entry.
  (void)cache.compile(tofino,
                      std::string(kCounter) + "event extra(int x);\n");
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.size(), 2u);

  // Same source, different model: the Layout-deep entry is stale.
  DriverOptions small;
  small.model.max_stages = 4;
  const CompilerDriver shrunk(small, &test_registry());
  const CompilationPtr recompiled = cache.compile(shrunk, kCounter);
  ASSERT_TRUE(recompiled->ok());
  EXPECT_EQ(recompiled->options().model.max_stages, 4);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ArtifactCache, LowerDeepEntriesShareTheAnalysisAcrossModelChanges) {
  // The Lower-deep options fingerprint covers only model-dependent inputs of
  // that depth — i.e. nothing — so switching resource models must neither
  // invalidate the entry nor fork the model-independent LayoutAnalysis.
  const apps::AppSpec& spec = apps::app("SFW");
  ArtifactCache cache;  // keep_stage = Lower
  const CompilerDriver tofino(app_options(spec), &test_registry());
  DriverOptions shrunk_opts = app_options(spec);
  shrunk_opts.model.max_stages = 4;
  shrunk_opts.model.salus_per_stage = 2;
  const CompilerDriver shrunk(shrunk_opts, &test_registry());

  const CompilationPtr a = cache.compile(tofino, spec.source);
  const CompilationPtr b = cache.compile(shrunk, spec.source);
  ASSERT_TRUE(tofino.run_until(a, Stage::Layout));
  ASSERT_TRUE(shrunk.run_until(b, Stage::Layout));
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // One analysis across both models, owned by the cached master. `a` ran
  // Layout first and so paid for the computation (analysis_shared false);
  // `b` inherited it ready-made.
  EXPECT_EQ(&a->layout_analysis(), &b->layout_analysis());
  EXPECT_EQ(a->analysis_home(), b->analysis_home());
  EXPECT_NE(a->analysis_home(), a.get());
  EXPECT_FALSE(a->record(Stage::Layout).analysis_shared);
  EXPECT_TRUE(b->record(Stage::Layout).analysis_shared);
  // Phase B still ran per model — the shrunk model cannot fit SFW's twelve
  // stages, the stock one can — so sharing Phase A leaks no Phase B state.
  EXPECT_TRUE(a->pipeline().fits);
  EXPECT_FALSE(b->pipeline().fits);
}

TEST(ArtifactCache, FailingSourcesAreNeverCached) {
  ArtifactCache cache;
  const CompilerDriver driver({}, &test_registry());
  const char* bad = "event e();\nhandle e() { y = 1; }\n";
  const CompilationPtr first = cache.compile(driver, bad);
  EXPECT_FALSE(first->ok());
  EXPECT_FALSE(first->is_clone());
  const CompilationPtr second = cache.compile(driver, bad);
  EXPECT_FALSE(second->ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 0u);
  // Diagnostics are reproduced identically on every retry.
  EXPECT_EQ(diag_transcript(*first), diag_transcript(*second));
}

TEST(ArtifactCache, DiskLayerRoundTripsArtifactsByteForByte) {
  const std::string dir =
      ::testing::TempDir() + "/lucid-cache-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);

  const apps::AppSpec& spec = apps::app("SFW");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact emitted = driver.emit(comp, "p4");
  ASSERT_TRUE(emitted.ok);

  ArtifactCache cache(Stage::Lower, dir);
  EXPECT_FALSE(
      cache.load_artifact(spec.source, comp->options(), "p4").has_value());
  cache.store_artifact(spec.source, comp->options(), emitted);
  const auto loaded = cache.load_artifact(spec.source, comp->options(), "p4");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ok);
  EXPECT_EQ(loaded->text, emitted.text);
  EXPECT_EQ(loaded->metrics, emitted.metrics);
  EXPECT_EQ(loaded->backend, "p4");

  // Different program name (part of the Emit fingerprint) is a different key.
  DriverOptions renamed = comp->options();
  renamed.program_name = "other";
  EXPECT_FALSE(cache.load_artifact(spec.source, renamed, "p4").has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().disk_writes, 1u);

  // Entries stamped by a different compiler build must read as misses: the
  // emitters may have changed, and stale output would mask that.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string contents = ss.str();
    const std::string stamp = "compiler " + std::string(kLucidVersion);
    const std::size_t at = contents.find(stamp);
    ASSERT_NE(at, std::string::npos);
    contents.replace(at, stamp.size(), "compiler 0.0.0-other");
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << contents;
  }
  EXPECT_FALSE(
      cache.load_artifact(spec.source, comp->options(), "p4").has_value());

  // An entry truncated before its text record (interrupted store) must be a
  // miss, never a successful empty artifact.
  cache.store_artifact(spec.source, comp->options(), emitted);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string line, header;
    while (std::getline(in, line) && line.rfind("text ", 0) != 0) {
      header += line + "\n";
    }
    in.close();
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << header;
  }
  EXPECT_FALSE(
      cache.load_artifact(spec.source, comp->options(), "p4").has_value());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, DiskKeysSeparateBackendsAndCompilerVersions) {
  // Regression: p4 and ebpf artifacts for the *same* source and options must
  // live under different disk keys — a shared key would let one backend's
  // output shadow the other's — and the key must pin the compiler version so
  // entries from older builds can never be served by filename collision.
  const std::string dir =
      ::testing::TempDir() + "/lucid-backend-keys-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);

  const apps::AppSpec& spec = apps::app("CM");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact p4_artifact = driver.emit(comp, "p4");
  const BackendArtifact ebpf_artifact = driver.emit(comp, "ebpf");
  ASSERT_TRUE(p4_artifact.ok);
  ASSERT_TRUE(ebpf_artifact.ok);
  ASSERT_NE(p4_artifact.text, ebpf_artifact.text);

  ArtifactCache cache(Stage::Lower, dir);
  cache.store_artifact(spec.source, comp->options(), p4_artifact);
  cache.store_artifact(spec.source, comp->options(), ebpf_artifact);
  EXPECT_EQ(cache.stats().disk_writes, 2u);

  // Two distinct entries on disk, each naming its backend and the compiler
  // version in the key itself.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    ++entries;
    EXPECT_NE(name.find("-v" + std::string(kLucidVersion)), std::string::npos)
        << name;
    EXPECT_TRUE(name.find("-p4-") != std::string::npos ||
                name.find("-ebpf-") != std::string::npos)
        << name;
  }
  EXPECT_EQ(entries, 2u);

  // Each backend loads back exactly its own bytes.
  const auto p4_loaded = cache.load_artifact(spec.source, comp->options(),
                                             "p4");
  const auto ebpf_loaded = cache.load_artifact(spec.source, comp->options(),
                                               "ebpf");
  ASSERT_TRUE(p4_loaded.has_value());
  ASSERT_TRUE(ebpf_loaded.has_value());
  EXPECT_EQ(p4_loaded->text, p4_artifact.text);
  EXPECT_EQ(ebpf_loaded->text, ebpf_artifact.text);
  EXPECT_EQ(p4_loaded->backend, "p4");
  EXPECT_EQ(ebpf_loaded->backend, "ebpf");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SweepEngine
// ---------------------------------------------------------------------------

SweepOptions four_variant_sweep(const std::string& program_name) {
  SweepOptions opts;
  opts.variants = *parse_sweep_grid("stages=4,8,12,16");
  opts.program_name = program_name;
  return opts;
}

TEST(SweepEngine, FourVariantsShareOneFrontEndRun) {
  const apps::AppSpec& spec = apps::app("SFW");
  const SweepEngine engine(&test_registry());
  const SweepReport report =
      engine.run(spec.source, four_variant_sweep(spec.key));

  ASSERT_EQ(report.variants.size(), 4u);
  EXPECT_TRUE(report.ok) << report.str();
  // The acceptance criterion: stage records prove a single front-end run.
  EXPECT_EQ(report.frontend_runs, 1);
  for (const SweepVariantReport& vr : report.variants) {
    SCOPED_TRACE(vr.variant.label);
    EXPECT_TRUE(vr.ok);
    for (const StageRecord& rec : vr.records) {
      if (rec.stage == Stage::Parse || rec.stage == Stage::Sema ||
          rec.stage == Stage::Lower) {
        EXPECT_TRUE(rec.shared) << stage_name(rec.stage);
      }
      if (rec.stage == Stage::Layout) {
        EXPECT_FALSE(rec.shared);
        EXPECT_TRUE(rec.ok);
        // Phase B ran here, but Phase A came from the shared front end.
        EXPECT_TRUE(rec.analysis_shared);
      }
    }
    ASSERT_EQ(vr.emissions.size(), 3u);  // p4 + ebpf + interp
    for (const SweepEmission& e : vr.emissions) {
      EXPECT_TRUE(e.ok) << e.backend;
      EXPECT_FALSE(e.text.empty());
    }
  }
  // The report renders without falling over.
  const std::string table = report.str();
  EXPECT_NE(table.find("stages=4"), std::string::npos);
  EXPECT_NE(table.find("front end: 1 run"), std::string::npos);
}

TEST(SweepEngine, ParallelSweepMatchesSerialColdCompiles) {
  const apps::AppSpec& spec = apps::app("DNS");
  const SweepEngine engine(&test_registry());
  const SweepOptions opts = four_variant_sweep(spec.key);
  const SweepReport report = engine.run(spec.source, opts);
  ASSERT_TRUE(report.ok) << report.str();

  for (std::size_t i = 0; i < opts.variants.size(); ++i) {
    SCOPED_TRACE(opts.variants[i].label);
    DriverOptions dopts;
    dopts.model = opts.variants[i].model;
    dopts.program_name = spec.key;
    const CompilerDriver driver(dopts, &test_registry());
    const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(cold->ok());
    EXPECT_EQ(report.variants[i].stats.optimized_stages,
              cold->layout_stats().optimized_stages);
    for (const SweepEmission& e : report.variants[i].emissions) {
      const BackendArtifact cold_artifact = driver.emit(cold, e.backend);
      ASSERT_TRUE(cold_artifact.ok);
      EXPECT_EQ(e.text, cold_artifact.text) << e.backend;
      EXPECT_EQ(e.metrics, cold_artifact.metrics) << e.backend;
    }
  }
}

TEST(SweepEngine, FrontEndFailureShortCircuits) {
  const SweepEngine engine(&test_registry());
  const SweepReport report =
      engine.run("event e();\nhandle e() { y = 1; }\n",
                 four_variant_sweep("bad"));
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.variants.empty());
  EXPECT_FALSE(report.frontend_diagnostics.empty());
  EXPECT_NE(report.str().find("front-end diagnostics"), std::string::npos);
}

TEST(SweepEngine, WarmCacheNeedsZeroFrontEndRuns) {
  const apps::AppSpec& spec = apps::app("RR");
  ArtifactCache cache;
  SweepOptions opts = four_variant_sweep(spec.key);
  opts.cache = &cache;
  const SweepEngine engine(&test_registry());

  const SweepReport first = engine.run(spec.source, opts);
  ASSERT_TRUE(first.ok) << first.str();
  EXPECT_EQ(first.frontend_runs, 1);

  const SweepReport second = engine.run(spec.source, opts);
  ASSERT_TRUE(second.ok) << second.str();
  // The front end came out of the cache: zero Parse executions this sweep.
  EXPECT_EQ(second.frontend_runs, 0);
  for (std::size_t i = 0; i < first.variants.size(); ++i) {
    for (std::size_t b = 0; b < first.variants[i].emissions.size(); ++b) {
      EXPECT_EQ(first.variants[i].emissions[b].text,
                second.variants[i].emissions[b].text);
    }
  }
}

TEST(SweepEngine, SemaDeepCacheStillReachesLayout) {
  // A cache that only keeps Sema-deep artifacts hands the engine a
  // compilation that stops there; the engine must finish Lower itself.
  const apps::AppSpec& spec = apps::app("SRO");
  ArtifactCache cache(Stage::Sema);
  SweepOptions opts = four_variant_sweep(spec.key);
  opts.cache = &cache;
  const SweepEngine engine(&test_registry());
  const SweepReport first = engine.run(spec.source, opts);
  EXPECT_TRUE(first.ok) << first.str();
  const SweepReport second = engine.run(spec.source, opts);
  EXPECT_TRUE(second.ok) << second.str();
  EXPECT_EQ(second.frontend_runs, 0);
}

TEST(SweepEngine, DiskCacheServesRepeatSweeps) {
  const std::string dir =
      ::testing::TempDir() + "/lucid-sweep-cache-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  const apps::AppSpec& spec = apps::app("NAT");
  const SweepEngine engine(&test_registry());

  SweepOptions opts = four_variant_sweep(spec.key);
  ArtifactCache cold_cache(Stage::Lower, dir);
  opts.cache = &cold_cache;
  const SweepReport first = engine.run(spec.source, opts);
  ASSERT_TRUE(first.ok) << first.str();
  for (const auto& vr : first.variants) {
    for (const auto& e : vr.emissions) EXPECT_FALSE(e.from_cache);
  }

  // A brand-new cache object (fresh process, same directory): emissions come
  // off disk and are byte-identical.
  ArtifactCache warm_cache(Stage::Lower, dir);
  opts.cache = &warm_cache;
  const SweepReport second = engine.run(spec.source, opts);
  ASSERT_TRUE(second.ok) << second.str();
  for (std::size_t i = 0; i < first.variants.size(); ++i) {
    for (std::size_t b = 0; b < first.variants[i].emissions.size(); ++b) {
      EXPECT_TRUE(second.variants[i].emissions[b].from_cache);
      EXPECT_EQ(first.variants[i].emissions[b].text,
                second.variants[i].emissions[b].text);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the debug-tsan target)
// ---------------------------------------------------------------------------

TEST(SweepConcurrency, WidePipelineSweepsOnConcurrentThreads) {
  // 16 variants x 3 backends for each of two apps, both sweeps running at
  // once through one engine and registry to shake out cross-sweep state.
  // TSan (preset debug-tsan) verifies the sweeps really share nothing
  // mutable.
  const auto grid = parse_sweep_grid("stages=4,8,12,16;salus=2,4;tables=4,8");
  ASSERT_TRUE(grid.has_value());
  ASSERT_EQ(grid->size(), 16u);
  const SweepEngine engine(&test_registry());
  const std::vector<std::string> keys = {"SFW", "CM"};
  std::vector<SweepReport> reports(keys.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    threads.emplace_back([&, k] {
      const apps::AppSpec& spec = apps::app(keys[k]);
      SweepOptions opts;
      opts.variants = *grid;
      opts.program_name = spec.key;
      reports[k] = engine.run(spec.source, opts);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE(keys[k]);
    const SweepReport& report = reports[k];
    EXPECT_EQ(report.frontend_runs, 1);
    ASSERT_EQ(report.variants.size(), 16u);
    for (const auto& vr : report.variants) {
      EXPECT_TRUE(vr.ok) << vr.variant.label << "\n" << report.str();
    }
  }
}

TEST(SweepConcurrency, SharedAnalysisLayoutMatchesColdUnderManyWorkers) {
  // The shared Phase A path under maximum contention (TSan runs this via the
  // concurrency label): 16 variants lay out off one front end on 8 threads,
  // racing the analysis call_once, and every result must match a serial cold
  // compile byte-for-byte while sharing one analysis by address.
  const auto grid = parse_sweep_grid("stages=4,8,12,16;salus=2,4;tables=4,8");
  ASSERT_TRUE(grid.has_value());
  const apps::AppSpec& spec = apps::app("DNS");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr base = driver.run(spec.source, Stage::Lower);
  ASSERT_TRUE(base->ok()) << base->diags().render();

  std::vector<std::string> shared_strs(grid->size());
  std::vector<const void*> analysis_addrs(grid->size());
  WorkerPool pool(8);
  pool.run(grid->size(), [&](std::size_t i) {
    DriverOptions vopts = app_options(spec);
    vopts.model = (*grid)[i].model;
    const CompilationPtr clone = base->clone_from_stage(Stage::Lower, vopts);
    const CompilerDriver vdriver(vopts, &test_registry());
    if (!vdriver.run_until(clone, Stage::Layout)) return;
    shared_strs[i] = clone->pipeline().str();
    analysis_addrs[i] = &clone->layout_analysis();
  });

  for (std::size_t i = 0; i < grid->size(); ++i) {
    SCOPED_TRACE((*grid)[i].label);
    DriverOptions copts = app_options(spec);
    copts.model = (*grid)[i].model;
    const CompilationPtr cold =
        CompilerDriver(copts, &test_registry()).run(spec.source);
    ASSERT_TRUE(cold->ok());
    EXPECT_EQ(shared_strs[i], cold->pipeline().str());
    EXPECT_EQ(analysis_addrs[i], &base->layout_analysis());
  }
}

TEST(SweepConcurrency, RecompilesRaceSweepsOverOneSharedPrev) {
  // The incremental edit pipeline's concurrency contract: recompile() only
  // *reads* prev, so any number of recompiles (formatting hits cloning prev,
  // one-decl edits splicing its IR) may race full sweeps over the same
  // source — and the donor's lazily computed layout analysis — with every
  // result byte-identical to its serial counterpart. TSan (preset
  // debug-tsan) runs this via the concurrency label.
  const apps::AppSpec& spec = apps::app("CM");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr prev = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(prev->ok()) << prev->diags().render();

  const std::string ws = "// reformatted\n" + spec.source + "\n// tail\n";
  std::string edited = spec.source;
  const std::size_t brace = edited.find('{', edited.find("handle "));
  ASSERT_NE(brace, std::string::npos);
  edited.insert(brace + 1, " int __zz_race = 1 + 2; ");

  DriverOptions tight = app_options(spec);
  tight.model.salus_per_stage = 2;

  // Serial ground truths.
  const CompilerDriver tight_driver(tight, &test_registry());
  const CompilationPtr cold_ws = tight_driver.run(ws, Stage::Layout);
  ASSERT_TRUE(cold_ws->ok());
  const std::string want_ws = tight_driver.emit(cold_ws, "p4").text;
  const CompilationPtr cold_edit = driver.run(edited, Stage::Layout);
  ASSERT_TRUE(cold_edit->ok());
  const std::string want_edit = driver.emit(cold_edit, "p4").text;

  const auto grid = parse_sweep_grid("stages=4,8,12,16");
  ASSERT_TRUE(grid.has_value());
  const SweepEngine engine(&test_registry());

  // Up to one thread per task. (ok is not a vector<bool>: its packed bits
  // would make the per-task writes a data race.)
  constexpr std::size_t kTasks = 12;
  std::vector<std::string> got(kTasks);
  std::vector<char> ok(kTasks, 0);
  WorkerPool pool(static_cast<int>(kTasks));
  pool.run(kTasks, [&](std::size_t i) {
    switch (i % 3) {
      case 0: {  // a full sweep of the same program
        SweepOptions opts;
        opts.variants = *grid;
        opts.program_name = spec.key;
        opts.backends = {"p4"};
        const SweepReport report = engine.run(spec.source, opts);
        ok[i] = report.ok;
        got[i] = report.ok ? "sweep-ok" : "sweep-failed";
        break;
      }
      case 1: {  // formatting hit under a *different* model: clones prev at
                 // Lower and races the donor's analysis call_once
        const CompilerDriver d(tight, &test_registry());
        const CompilationPtr c = d.recompile(prev, ws);
        ok[i] = d.run_until(c, Stage::Layout);
        got[i] = d.emit(c, "p4").text;
        break;
      }
      case 2: {  // one-decl edit splicing prev's IR
        const CompilerDriver d(app_options(spec), &test_registry());
        const CompilationPtr c = d.recompile(prev, edited);
        ok[i] = d.run_until(c, Stage::Layout);
        got[i] = d.emit(c, "p4").text;
        break;
      }
    }
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(ok[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(got[i], "sweep-ok");
    } else {
      EXPECT_EQ(got[i], i % 3 == 1 ? want_ws : want_edit);
    }
  }
}

}  // namespace
}  // namespace lucid
