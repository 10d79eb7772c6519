// Sweep-engine, artifact-cache, and differential-equivalence tests.
//
// The load-bearing guarantee: a compilation that reuses cloned front-end
// artifacts is *observably identical* to a cold compile — same
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
#include "obs/metrics.hpp"
#include "support/parallel.hpp"

#include "interp_fingerprint.hpp"

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
// Differential equivalence: cloned == cold, for every paper app
// ---------------------------------------------------------------------------

TEST(Differential, ClonedCompileProducesByteIdenticalArtifacts) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const CompilerDriver driver(app_options(spec), &test_registry());

    const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(cold->ok()) << cold->diags().render();

    const CompilationPtr cached = cold->clone_from_stage(Stage::Lower);
    ASSERT_NE(cached, nullptr);
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
// ArtifactCache (the on-disk store) behavior
// ---------------------------------------------------------------------------

constexpr const char* kCounter =
    "global cnt = new Array<<32>>(16);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "event bump(int i);\n"
    "handle bump(int i) { Array.set(cnt, i & 15, plus, 1); }\n";

/// Per-test scratch directory for the disk cache, removed first.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/lucid-" + name + "-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Current value of a lucid_artifact_cache_<what>_total counter.
std::uint64_t cache_count(const std::string& what) {
  return obs::Registry::global()
      .counter("lucid_artifact_cache_" + what + "_total")
      .value();
}

/// The one entry file in `dir`.
std::filesystem::path only_entry(const std::string& dir) {
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries.push_back(e.path());
  }
  EXPECT_EQ(entries.size(), 1u);
  return entries.empty() ? std::filesystem::path{} : entries.front();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

TEST(ArtifactCache, FailingSourcesAreNeverCached) {
  // A failed artifact is never stored, and a source that does not parse has
  // no key to load by.
  const std::string dir = fresh_cache_dir("failing");
  const ArtifactCache cache(dir);
  const CompilerDriver driver({}, &test_registry());
  const CompilationPtr bad = driver.run("event e();\nhandle e() { y = 1; }\n");
  ASSERT_FALSE(bad->ok());
  const BackendArtifact failed = driver.emit(bad, "p4");
  ASSERT_FALSE(failed.ok);
  const std::uint64_t writes = cache_count("writes");
  cache.store_artifact(*bad, failed);
  EXPECT_EQ(cache_count("writes"), writes);
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_FALSE(cache.load_artifact(*bad, "p4").has_value());

  const CompilationPtr unparsable = driver.run("event (", Stage::Parse);
  ASSERT_FALSE(unparsable->succeeded(Stage::Parse));
  const std::uint64_t misses = cache_count("misses");
  EXPECT_FALSE(cache.load_artifact(*unparsable, "p4").has_value());
  EXPECT_EQ(cache_count("misses"), misses + 1);
}

TEST(ArtifactCache, DiskLayerRoundTripsArtifactsByteForByte) {
  const std::string dir = fresh_cache_dir("cache");

  const apps::AppSpec& spec = apps::app("SFW");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact emitted = driver.emit(comp, "p4");
  ASSERT_TRUE(emitted.ok);

  const ArtifactCache cache(dir);
  const std::uint64_t hits = cache_count("hits");
  const std::uint64_t misses = cache_count("misses");
  const std::uint64_t writes = cache_count("writes");
  EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());
  cache.store_artifact(*comp, emitted);
  const auto loaded = cache.load_artifact(*comp, "p4");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ok);
  EXPECT_EQ(loaded->text, emitted.text);
  EXPECT_EQ(loaded->metrics, emitted.metrics);
  EXPECT_EQ(loaded->backend, "p4");

  // Different program name (part of the options fingerprint) is a
  // different key.
  DriverOptions renamed = comp->options();
  renamed.program_name = "other";
  const CompilationPtr other =
      CompilerDriver(renamed, &test_registry()).run(spec.source, Stage::Parse);
  EXPECT_FALSE(cache.load_artifact(*other, "p4").has_value());
  EXPECT_EQ(cache_count("hits"), hits + 1);
  EXPECT_EQ(cache_count("misses"), misses + 2);
  EXPECT_EQ(cache_count("writes"), writes + 1);

  // Entries stamped by a different compiler build must read as misses: the
  // emitters may have changed, and stale output would mask that.
  const std::filesystem::path entry = only_entry(dir);
  std::string contents = read_file(entry);
  const std::string stamp = "compiler " + std::string(kLucidVersion);
  const std::size_t at = contents.find(stamp);
  ASSERT_NE(at, std::string::npos);
  contents.replace(at, stamp.size(), "compiler 0.0.0-other");
  write_file(entry, contents);
  EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());

  // An entry truncated before its text record (interrupted store) must be a
  // miss, never a successful empty artifact.
  cache.store_artifact(*comp, emitted);
  const std::string good = read_file(entry);
  write_file(entry, good.substr(0, good.find("text ")));
  EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, CorruptTextRecordsAreMissesNotCrashes) {
  // The text record's size comes from the file. A size that disagrees with
  // the bytes actually there reads as a miss; it is never used to allocate
  // (a negative or huge size used to throw length_error / bad_alloc).
  const std::string dir = fresh_cache_dir("corrupt");
  const apps::AppSpec& spec = apps::app("NAT");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact emitted = driver.emit(comp, "p4");
  ASSERT_TRUE(emitted.ok);
  const ArtifactCache cache(dir);
  cache.store_artifact(*comp, emitted);
  const std::filesystem::path entry = only_entry(dir);
  const std::string good = read_file(entry);
  const std::string size_record = "text " + std::to_string(emitted.text.size());
  const std::size_t at = good.find(size_record + "\n");
  ASSERT_NE(at, std::string::npos);
  ASSERT_TRUE(cache.load_artifact(*comp, "p4").has_value());

  for (const char* bad_size : {"-1", "99999999999", "0"}) {
    SCOPED_TRACE(bad_size);
    std::string corrupt = good;
    corrupt.replace(at, size_record.size(), std::string("text ") + bad_size);
    write_file(entry, corrupt);
    const std::uint64_t misses = cache_count("misses");
    EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());
    EXPECT_EQ(cache_count("misses"), misses + 1);
  }

  // Truncated mid-text: the size record is intact, the bytes are not.
  write_file(entry, good.substr(0, good.size() - emitted.text.size() / 2));
  EXPECT_FALSE(cache.load_artifact(*comp, "p4").has_value());

  // A later store repairs the entry.
  cache.store_artifact(*comp, emitted);
  const auto repaired = cache.load_artifact(*comp, "p4");
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->text, emitted.text);
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCache, DiskKeysSeparateBackendsAndCompilerVersions) {
  // Regression: p4 and ebpf artifacts for the *same* source and options must
  // live under different disk keys — a shared key would let one backend's
  // output shadow the other's — and the key must pin the compiler version so
  // entries from older builds can never be served by filename collision.
  const std::string dir = fresh_cache_dir("backend-keys");

  const apps::AppSpec& spec = apps::app("CM");
  const CompilerDriver driver(app_options(spec), &test_registry());
  const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact p4_artifact = driver.emit(comp, "p4");
  const BackendArtifact ebpf_artifact = driver.emit(comp, "ebpf");
  ASSERT_TRUE(p4_artifact.ok);
  ASSERT_TRUE(ebpf_artifact.ok);
  ASSERT_NE(p4_artifact.text, ebpf_artifact.text);

  const ArtifactCache cache(dir);
  const std::uint64_t writes = cache_count("writes");
  cache.store_artifact(*comp, p4_artifact);
  cache.store_artifact(*comp, ebpf_artifact);
  EXPECT_EQ(cache_count("writes"), writes + 2);

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
  const auto p4_loaded = cache.load_artifact(*comp, "p4");
  const auto ebpf_loaded = cache.load_artifact(*comp, "ebpf");
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

TEST(SweepEngine, DiskCacheServesRepeatSweeps) {
  const std::string dir = fresh_cache_dir("sweep-cache");
  const apps::AppSpec& spec = apps::app("NAT");
  const SweepEngine engine(&test_registry());

  SweepOptions opts = four_variant_sweep(spec.key);
  const ArtifactCache cold_cache(dir);
  opts.cache = &cold_cache;
  const SweepReport first = engine.run(spec.source, opts);
  ASSERT_TRUE(first.ok) << first.str();
  for (const auto& vr : first.variants) {
    for (const auto& e : vr.emissions) EXPECT_FALSE(e.from_cache);
  }

  // A brand-new cache object (fresh process, same directory): emissions come
  // off disk and are byte-identical.
  const ArtifactCache warm_cache(dir);
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

  // The sweep keys its entries on a compilation that ran through Lower;
  // `lucidc --emit --cache-dir` keys on one that ran only Parse. Both must
  // name the same entry, so the two share a directory.
  for (std::size_t i = 0; i < opts.variants.size(); ++i) {
    DriverOptions dopts = app_options(spec);
    dopts.model = opts.variants[i].model;
    const CompilationPtr parsed =
        CompilerDriver(dopts, &test_registry()).run(spec.source, Stage::Parse);
    const auto loaded = warm_cache.load_artifact(*parsed, "p4");
    ASSERT_TRUE(loaded.has_value()) << opts.variants[i].label;
    EXPECT_EQ(loaded->text, first.variants[i].emissions[0].text);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepEngine, DiskEntriesOfWarningCompilesAreServedOnlyToTheSweep) {
  // Two generate sites in one handler and a recirculation cycle: the eBPF
  // emitter warns. The sweep stores the entry with its diagnostic count; a
  // quiet-only load (lucidc --emit prints diagnostics) misses it, so that
  // caller compiles and warns as a cold run does.
  const std::string source =
      "event a(int x);\nevent b(int x);\n"
      "handle a(int x) {\n  generate b(x);\n  generate b(x + 1);\n}\n"
      "handle b(int x) { generate a(x); }\n";
  const std::string dir = fresh_cache_dir("sweep-warnings");
  const ArtifactCache cache(dir);
  SweepOptions opts;
  opts.variants = *parse_sweep_grid("");
  opts.backends = {"ebpf"};
  opts.program_name = "warns";
  opts.cache = &cache;
  const SweepReport report = SweepEngine(&test_registry()).run(source, opts);
  ASSERT_TRUE(report.ok) << report.str();

  DriverOptions dopts;
  dopts.program_name = "warns";
  const CompilerDriver driver(dopts, &test_registry());
  const CompilationPtr parsed = driver.run(source, Stage::Parse);
  const auto any = cache.load_artifact(*parsed, "ebpf");
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->text, report.variants[0].emissions[0].text);
  EXPECT_FALSE(cache.load_artifact(*parsed, "ebpf", /*quiet_only=*/true));

  const CompilationPtr cold = driver.start(source);
  ASSERT_TRUE(driver.emit(cold, "ebpf").ok);
  EXPECT_FALSE(cold->diags().all().empty());
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
    ASSERT_EQ(report.variants.size(), 16u);
    for (const auto& vr : report.variants) {
      EXPECT_TRUE(vr.ok) << vr.variant.label << "\n" << report.str();
    }
  }
}

TEST(SweepConcurrency, TwoSweepsFillOneFreshCacheDirectory) {
  // Two threads sweep the same program into one empty cache directory at
  // once, so loads race stores of the same entries (write-to-temp + rename
  // must never expose a partial entry). TSan (preset debug-tsan) runs this
  // via the concurrency label. Every emission, served or stored, must equal
  // a cold compile's.
  const std::string dir = fresh_cache_dir("concurrent-sweeps");
  const apps::AppSpec& spec = apps::app("NAT");
  const SweepOptions base_opts = four_variant_sweep(spec.key);
  const SweepEngine engine(&test_registry());
  std::vector<SweepReport> reports(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < reports.size(); ++t) {
    threads.emplace_back([&, t] {
      const ArtifactCache cache(dir);
      SweepOptions opts = base_opts;
      opts.cache = &cache;
      reports[t] = engine.run(spec.source, opts);
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t i = 0; i < base_opts.variants.size(); ++i) {
    SCOPED_TRACE(base_opts.variants[i].label);
    DriverOptions dopts = app_options(spec);
    dopts.model = base_opts.variants[i].model;
    const CompilerDriver driver(dopts, &test_registry());
    const CompilationPtr cold = driver.run(spec.source, Stage::Layout);
    ASSERT_TRUE(cold->ok());
    for (const SweepReport& report : reports) {
      ASSERT_TRUE(report.ok) << report.str();
      for (const SweepEmission& e : report.variants[i].emissions) {
        const BackendArtifact want = driver.emit(cold, e.backend);
        ASSERT_TRUE(want.ok);
        EXPECT_EQ(e.text, want.text) << e.backend;
        EXPECT_EQ(e.metrics, want.metrics) << e.backend;
      }
    }
  }
  std::filesystem::remove_all(dir);
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
