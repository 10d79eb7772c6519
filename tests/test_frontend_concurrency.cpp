// Concurrency suite for the front end shared across caller threads (run
// under ThreadSanitizer by the debug-tsan preset via `ctest -L concurrency`).
// The front end itself is serial; what must be race-free is many threads
// compiling at once:
//
//   * independent compilations running Sema side by side — the obs span
//     hooks and the backend registry are process-wide — including the
//     conditional header-annotation writes on decls shared (spliced) with a
//     previous compilation;
//   * many recompiles splicing from ONE shared prev concurrently: the span
//     table, decl fingerprints, and Phase A analysis caches are all
//     call_once-lazy on prev, and every thread may hit them first;
//   * recompiles racing a resource-model sweep over the same prev — clones
//     and recompiles pull prev's analysis at the same time the patched
//     update_layout_analysis reads it.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/driver.hpp"

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

std::string diag_transcript(const Compilation& comp) {
  std::string out;
  for (const Diagnostic& d : comp.diags().all()) {
    out += std::string(severity_name(d.severity)) + "|" + d.code + "|" +
           d.message + "\n";
  }
  return out;
}

/// A one-decl edit distinguishable per thread (distinct constant).
std::string edit_first_handler(const std::string& source, int salt) {
  const std::size_t h = source.find("handle ");
  EXPECT_NE(h, std::string::npos);
  const std::size_t brace = source.find('{', h);
  EXPECT_NE(brace, std::string::npos);
  std::string out = source;
  out.insert(brace + 1,
             " int __t_edit = " + std::to_string(salt + 1) + "; ");
  return out;
}

TEST(FrontendConcurrency, ConcurrentCompilesOfTheAppsAreRaceFree) {
  // One thread per paper app, all compiling at once: their Sema runs race
  // the obs span hooks and the shared registry.
  const std::vector<apps::AppSpec>& specs = apps::all_apps();
  std::vector<CompilationPtr> comps(specs.size());
  std::vector<std::thread> threads;
  threads.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    threads.emplace_back([&, i] {
      DriverOptions opts;
      opts.program_name = specs[i].key;
      const CompilerDriver driver(opts, &test_registry());
      comps[i] = driver.run(specs[i].source, Stage::Layout);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(comps[i]->ok()) << specs[i].key << "\n"
                                << comps[i]->diags().render();
  }
}

TEST(FrontendConcurrency, ManyRecompilesSpliceFromOneSharedPrev) {
  // prev is compiled cold and its lazy caches (span table, fingerprints,
  // Phase A analysis) are NOT warmed — all 8 threads race the call_onces,
  // splice prev's decl nodes, and re-check their own dirty decl.
  const apps::AppSpec& spec = apps::app("SFW");
  DriverOptions opts;
  opts.program_name = spec.key;
  const CompilerDriver driver(opts, &test_registry());
  const CompilationPtr prev = driver.run(spec.source, Stage::Layout);
  ASSERT_TRUE(prev->ok()) << prev->diags().render();

  constexpr int kThreads = 8;
  std::vector<CompilationPtr> recs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string edited = edit_first_handler(spec.source, t);
      recs[static_cast<std::size_t>(t)] = driver.recompile(prev, edited);
      driver.run_until(recs[static_cast<std::size_t>(t)], Stage::Layout);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    const CompilationPtr& rec = recs[static_cast<std::size_t>(t)];
    ASSERT_TRUE(rec->ok()) << rec->diags().render();
    EXPECT_GT(rec->record(Stage::Parse).decls_reused, 0);
    // Each thread's result still matches its own cold compile.
    const CompilationPtr cold =
        driver.run(edit_first_handler(spec.source, t), Stage::Layout);
    ASSERT_TRUE(cold->ok());
    EXPECT_EQ(cold->pipeline().str(), rec->pipeline().str());
    EXPECT_EQ(diag_transcript(*cold), diag_transcript(*rec));
  }
}

TEST(FrontendConcurrency, RecompilesRaceAResourceModelSweep) {
  // Half the threads recompile one-decl edits against prev (reading its
  // analysis through update_layout_analysis); the other half sweep resource
  // models over clones of prev (reading the same analysis through
  // opt::layout). prev's analysis call_once is cold at the start.
  const apps::AppSpec& spec = apps::app("SFW");
  DriverOptions opts;
  opts.program_name = spec.key;
  const CompilerDriver driver(opts, &test_registry());
  const CompilationPtr prev = driver.run(spec.source, Stage::Lower);
  ASSERT_TRUE(prev->ok()) << prev->diags().render();

  constexpr int kPairs = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> sweep_pipes(kPairs);
  std::vector<CompilationPtr> recs(kPairs);
  threads.reserve(2 * kPairs);
  for (int t = 0; t < kPairs; ++t) {
    threads.emplace_back([&, t] {
      const std::string edited = edit_first_handler(spec.source, t);
      recs[static_cast<std::size_t>(t)] = driver.recompile(prev, edited);
      driver.run_until(recs[static_cast<std::size_t>(t)], Stage::Layout);
    });
    threads.emplace_back([&, t] {
      DriverOptions variant = opts;
      variant.model.max_stages = 8 + t * 4;
      const CompilationPtr clone =
          prev->clone_from_stage(Stage::Lower, variant);
      ASSERT_NE(clone, nullptr);
      driver.run_until(clone, Stage::Layout);
      sweep_pipes[static_cast<std::size_t>(t)] = clone->pipeline().str();
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kPairs; ++t) {
    SCOPED_TRACE(t);
    ASSERT_TRUE(recs[static_cast<std::size_t>(t)]->ok());
    EXPECT_FALSE(sweep_pipes[static_cast<std::size_t>(t)].empty());
  }
}

}  // namespace
}  // namespace lucid
