// CompilerDriver API tests: stage-by-stage stop/resume, per-stage
// diagnostics isolation, pass-timing counters, the backend registry, and the
// Compilation ownership model (a Runtime must keep the artifacts alive after
// the driver and testbed are gone).
#include <gtest/gtest.h>

#include <memory>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "interp/testbed.hpp"
#include "obs/metrics.hpp"

namespace lucid {
namespace {

constexpr const char* kCounter =
    "global cnt = new Array<<32>>(16);\n"
    "memop plus(int cur, int x) { return cur + x; }\n"
    "event bump(int i);\n"
    "handle bump(int i) { Array.set(cnt, i & 15, plus, 1); }\n";

constexpr const char* kSemaError =
    "event e();\n"
    "handle e() { y = 1; }\n";  // undefined variable: parses, fails sema

constexpr const char* kParseError = "event";  // truncated declaration

// ---------------------------------------------------------------------------
// Stage-by-stage stop and resume
// ---------------------------------------------------------------------------

TEST(Driver, StopAfterEachStageThenResume) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.start(kCounter);
  EXPECT_FALSE(comp->last_stage().has_value());

  EXPECT_TRUE(driver.run_until(comp, Stage::Parse));
  EXPECT_TRUE(comp->succeeded(Stage::Parse));
  EXPECT_FALSE(comp->ran(Stage::Sema));
  EXPECT_EQ(comp->last_stage(), Stage::Parse);
  EXPECT_FALSE(comp->ast().events().empty());

  EXPECT_TRUE(driver.run_until(comp, Stage::Sema));
  EXPECT_TRUE(comp->succeeded(Stage::Sema));
  EXPECT_FALSE(comp->ran(Stage::Lower));
  EXPECT_EQ(comp->analysis().handler_end_stage.count("bump"), 1u);

  // Resume the rest of the pipeline in one go.
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout));
  EXPECT_TRUE(comp->succeeded(Stage::Lower));
  EXPECT_TRUE(comp->succeeded(Stage::Layout));
  EXPECT_EQ(comp->ir().arrays.size(), 1u);
  EXPECT_GT(comp->layout_stats().optimized_stages, 0);
}

TEST(Driver, RunNextAdvancesOneStageAtATime) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.start(kCounter);
  const Stage expected[] = {Stage::Parse, Stage::Sema, Stage::Lower,
                           Stage::Layout};
  for (const Stage s : expected) {
    EXPECT_TRUE(driver.run_next(comp));
    EXPECT_EQ(comp->last_stage(), s);
  }
  // The middle end is complete; there is nothing left to step.
  EXPECT_FALSE(driver.run_next(comp));
  EXPECT_TRUE(comp->ok());
}

TEST(Driver, RerunningACompletedStageIsANoOp) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const double parse_ms = comp->record(Stage::Parse).wall_ms;
  const std::size_t diag_count = comp->diags().all().size();
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout));
  EXPECT_EQ(comp->record(Stage::Parse).wall_ms, parse_ms);
  EXPECT_EQ(comp->diags().all().size(), diag_count);
}

TEST(Driver, FailedStageBlocksResume) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kSemaError, Stage::Layout);
  EXPECT_FALSE(comp->ok());
  EXPECT_TRUE(comp->succeeded(Stage::Parse));
  EXPECT_TRUE(comp->ran(Stage::Sema));
  EXPECT_FALSE(comp->succeeded(Stage::Sema));
  EXPECT_FALSE(comp->ran(Stage::Lower));
  // Resume attempts refuse to run past the failure.
  EXPECT_FALSE(driver.run_until(comp, Stage::Layout));
  EXPECT_FALSE(comp->ran(Stage::Lower));
  EXPECT_FALSE(driver.run_next(comp));
}

// ---------------------------------------------------------------------------
// Per-stage diagnostics isolation
// ---------------------------------------------------------------------------

TEST(Driver, SemaDiagnosticsDoNotLeakIntoOtherStages) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kSemaError, Stage::Layout);
  EXPECT_TRUE(comp->stage_diagnostics(Stage::Parse).empty());
  EXPECT_FALSE(comp->stage_diagnostics(Stage::Sema).empty());
  EXPECT_TRUE(comp->stage_diagnostics(Stage::Lower).empty());
  for (const auto& d : comp->stage_diagnostics(Stage::Sema)) {
    EXPECT_EQ(d.severity, Severity::Error);
  }
}

TEST(Driver, ParseDiagnosticsAttributeToParse) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kParseError, Stage::Layout);
  EXPECT_FALSE(comp->ok());
  EXPECT_FALSE(comp->stage_diagnostics(Stage::Parse).empty());
  EXPECT_FALSE(comp->ran(Stage::Sema));
  EXPECT_TRUE(comp->stage_diagnostics(Stage::Sema).empty());
}

// ---------------------------------------------------------------------------
// Pass timings
// ---------------------------------------------------------------------------

TEST(Driver, TimingCountersAreMonotone) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  double sum = 0.0;
  for (const StageRecord& rec : comp->records()) {
    EXPECT_GE(rec.wall_ms, 0.0) << stage_name(rec.stage);
    EXPECT_LE(rec.wall_ms, comp->total_wall_ms()) << stage_name(rec.stage);
    sum += rec.wall_ms;
  }
  EXPECT_DOUBLE_EQ(sum, comp->total_wall_ms());
  // Running more stages never decreases the total.
  const CompilationPtr partial = driver.run(kCounter, Stage::Sema);
  const double after_sema = partial->total_wall_ms();
  driver.run_until(partial, Stage::Layout);
  EXPECT_GE(partial->total_wall_ms(), after_sema);
}

TEST(Driver, TimingReportListsEveryRanStage) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  const std::string report = comp->timing_report();
  for (const char* stage : {"parse", "sema", "lower", "layout", "total"}) {
    EXPECT_NE(report.find(stage), std::string::npos) << report;
  }
}

TEST(Driver, TimingReportJsonIsMachineReadable) {
  // The --time-passes=json payload: one object, every ran stage with its
  // wall clock and sharing flags, and the total. A clone's Layout record
  // must advertise the shared Phase A analysis.
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  const std::string json = comp->timing_report_json();
  EXPECT_EQ(json.front(), '{');
  for (const char* needle :
       {"\"program\": ", "\"stage\": \"parse\"", "\"stage\": \"sema\"",
        "\"stage\": \"lower\"", "\"stage\": \"layout\"", "\"wall_ms\": ",
        "\"total_wall_ms\": ", "\"analysis_shared\": false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << json;
  }
  EXPECT_EQ(json.find("\"analysis_shared\": true"), std::string::npos);

  const CompilationPtr clone = comp->clone_from_stage(Stage::Lower);
  ASSERT_NE(clone, nullptr);
  ASSERT_TRUE(driver.run_until(clone, Stage::Layout));
  const std::string clone_json = clone->timing_report_json();
  EXPECT_NE(clone_json.find("\"shared\": true"), std::string::npos)
      << clone_json;
  EXPECT_NE(clone_json.find("\"analysis_shared\": true"), std::string::npos)
      << clone_json;
}

// ---------------------------------------------------------------------------
// Backend registry
// ---------------------------------------------------------------------------

TEST(Driver, LayoutRestartsLandInTheRegistry) {
  // SFW restarts its placement 3 times at the default model (pinned by
  // tests/golden/layout_tight.txt); each Layout run adds its restarts to
  // lucid_layout_restarts_total.
  const obs::Counter& restarts =
      obs::Registry::global().counter("lucid_layout_restarts_total");
  const std::uint64_t before = restarts.value();
  const CompilerDriver driver;
  const CompilationPtr comp =
      driver.run(apps::app("SFW").source, Stage::Layout);
  ASSERT_TRUE(comp->ok()) << comp->diags().render();
  EXPECT_EQ(comp->pipeline().restarts, 3);
  EXPECT_EQ(restarts.value() - before, 3u);
}

TEST(Driver, DefaultBackendsAreRegistered) {
  BackendRegistry registry;
  register_default_backends(registry);
  ASSERT_NE(registry.find("p4"), nullptr);
  ASSERT_NE(registry.find("interp"), nullptr);
  ASSERT_NE(registry.find("ebpf"), nullptr);
  ASSERT_NE(registry.find("native"), nullptr);
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"ebpf", "interp", "native", "p4"}));
  // Idempotent: a second registration does not duplicate.
  register_default_backends(registry);
  EXPECT_EQ(registry.size(), 4u);
}

TEST(Driver, UnknownBackendIsADiagnosticNotACrash) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  const BackendArtifact artifact = driver.emit(comp, "bmv2");
  EXPECT_FALSE(artifact.ok);
  EXPECT_TRUE(artifact.text.empty());
  EXPECT_TRUE(comp->diags().has_code("driver-unknown-backend"));
  EXPECT_FALSE(comp->ran(Stage::Emit));
}

TEST(Driver, EmitP4ThroughRegistry) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  // emit() runs the stages the backend needs on its own.
  const CompilationPtr comp = driver.start(kCounter);
  const BackendArtifact artifact = driver.emit(comp, "p4");
  ASSERT_TRUE(artifact.ok) << comp->diags().render();
  EXPECT_NE(artifact.text.find("Switch(pipe) main;"), std::string::npos);
  EXPECT_GT(artifact.metrics.at("loc_total"), 0);
  EXPECT_TRUE(comp->succeeded(Stage::Layout));
  EXPECT_TRUE(comp->succeeded(Stage::Emit));
}

TEST(Driver, EmitInterpThroughRegistry) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.start(kCounter);
  const BackendArtifact artifact = driver.emit(comp, "interp");
  ASSERT_TRUE(artifact.ok) << comp->diags().render();
  EXPECT_NE(artifact.text.find("interp binding"), std::string::npos);
  EXPECT_EQ(artifact.metrics.at("events"), 1);
  EXPECT_EQ(artifact.metrics.at("arrays"), 1);
}

TEST(Driver, PreexistingDiagnosticsDoNotFailLaterStages) {
  // A failed emit attempt leaves an error diagnostic on the compilation;
  // stage success is judged on the errors each stage itself adds, so the
  // middle end must still run clean afterwards.
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.start(kCounter);
  const BackendArtifact artifact = driver.emit(comp, "no-such-backend");
  EXPECT_FALSE(artifact.ok);
  EXPECT_TRUE(comp->diags().has_errors());
  EXPECT_TRUE(driver.run_until(comp, Stage::Layout));
  for (const Stage s : {Stage::Parse, Stage::Sema, Stage::Lower,
                        Stage::Layout}) {
    EXPECT_TRUE(comp->succeeded(s)) << stage_name(s);
  }
}

namespace {
class AlwaysFailBackend final : public Backend {
 public:
  [[nodiscard]] std::string name() const override { return "failing"; }
  [[nodiscard]] std::string description() const override {
    return "test backend that always fails";
  }
  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    comp.diags().error({}, "test-backend-fail", "intentional failure");
    return {};
  }
};
}  // namespace

TEST(Driver, EmitRecordAggregatesAcrossBackends) {
  BackendRegistry registry;
  register_default_backends(registry);
  ASSERT_TRUE(registry.add(std::make_unique<AlwaysFailBackend>()));
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(driver.emit(comp, "p4").ok);
  EXPECT_TRUE(comp->succeeded(Stage::Emit));
  const double after_first = comp->record(Stage::Emit).wall_ms;
  EXPECT_FALSE(driver.emit(comp, "failing").ok);
  // ok holds only if every emission succeeded; timings accumulate.
  EXPECT_FALSE(comp->succeeded(Stage::Emit));
  EXPECT_GE(comp->record(Stage::Emit).wall_ms, after_first);
  // The Emit diagnostics range spans the failing backend's error.
  bool found = false;
  for (const auto& d : comp->stage_diagnostics(Stage::Emit)) {
    if (d.code == "test-backend-fail") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Driver, LazilyRunStagesAreNotAttributedToEmit) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.start(kCounter);
  // interp only needs Lower; Layout must not run yet.
  ASSERT_TRUE(driver.emit(comp, "interp").ok);
  EXPECT_FALSE(comp->ran(Stage::Layout));
  // p4 pulls in Layout lazily; whatever Layout reports belongs to Layout,
  // not to the Emit record that triggered it.
  ASSERT_TRUE(driver.emit(comp, "p4").ok);
  EXPECT_TRUE(comp->succeeded(Stage::Layout));
  EXPECT_TRUE(comp->stage_diagnostics(Stage::Emit).empty());
}

TEST(Driver, FailedEmitDoesNotPoisonLaterEmits) {
  BackendRegistry registry;
  register_default_backends(registry);
  ASSERT_TRUE(registry.add(std::make_unique<AlwaysFailBackend>()));
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(comp->ok());
  EXPECT_FALSE(driver.emit(comp, "failing").ok);
  // The middle end is untouched; a different backend must still emit, and
  // must not see a spurious "stage failed" diagnostic.
  const BackendArtifact p4 = driver.emit(comp, "p4");
  EXPECT_TRUE(p4.ok) << comp->diags().render();
  EXPECT_FALSE(comp->diags().has_code("driver-stage-failed"));
  EXPECT_TRUE(comp->succeeded(Stage::Layout));
}

TEST(Driver, EmitOnFailedCompilationReportsStageFailure) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr comp = driver.start(kSemaError);
  const BackendArtifact artifact = driver.emit(comp, "p4");
  EXPECT_FALSE(artifact.ok);
  EXPECT_TRUE(comp->diags().has_code("driver-stage-failed"));
}

// ---------------------------------------------------------------------------
// clone_from_stage: fork a compilation, sharing completed front-end stages
// ---------------------------------------------------------------------------

TEST(Driver, CloneSharesArtifactsByAddress) {
  const CompilerDriver driver;
  const CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());

  const CompilationPtr clone = base->clone_from_stage(Stage::Lower);
  ASSERT_NE(clone, nullptr);
  EXPECT_TRUE(clone->is_clone());
  EXPECT_EQ(clone->donor(), base.get());
  EXPECT_FALSE(base->is_clone());
  // Shared, not copied: the very same objects.
  EXPECT_EQ(&clone->ast(), &base->ast());
  EXPECT_EQ(&clone->analysis(), &base->analysis());
  EXPECT_EQ(&clone->ir(), &base->ir());
  // Stage records carry the provenance.
  for (const Stage s : {Stage::Parse, Stage::Sema, Stage::Lower}) {
    EXPECT_TRUE(clone->succeeded(s)) << stage_name(s);
    EXPECT_TRUE(clone->record(s).shared) << stage_name(s);
    EXPECT_FALSE(base->record(s).shared) << stage_name(s);
  }
  EXPECT_FALSE(clone->ran(Stage::Layout));
}

TEST(Driver, CloneRunsItsOwnLayoutUnderItsOwnModel) {
  const CompilerDriver driver;
  const CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());
  const int base_stages = base->layout_stats().optimized_stages;

  DriverOptions tight;
  tight.model.tables_per_stage = 1;
  tight.model.members_per_table = 1;
  const CompilationPtr clone = base->clone_from_stage(Stage::Lower, tight);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->options().model.tables_per_stage, 1);
  ASSERT_TRUE(driver.run_until(clone, Stage::Layout));
  EXPECT_FALSE(clone->record(Stage::Layout).shared);
  // The clone laid out under its own model; the donor is untouched.
  EXPECT_EQ(base->layout_stats().optimized_stages, base_stages);
  EXPECT_GE(clone->layout_stats().optimized_stages, base_stages);
}

TEST(Driver, CloneFromLayoutSharesThePipeline) {
  BackendRegistry registry;
  register_default_backends(registry);
  const CompilerDriver driver({}, &registry);
  const CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());
  const CompilationPtr clone = base->clone_from_stage(Stage::Layout);
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(&clone->pipeline(), &base->pipeline());
  // Emission runs on the clone without touching the donor's Emit record.
  const BackendArtifact artifact = driver.emit(clone, "p4");
  ASSERT_TRUE(artifact.ok) << clone->diags().render();
  EXPECT_TRUE(clone->succeeded(Stage::Emit));
  EXPECT_FALSE(base->ran(Stage::Emit));
}

TEST(Driver, CloneRefusesInvalidRequests) {
  const CompilerDriver driver;
  const CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());
  // Parse-level clones would share an AST that a later Sema run mutates.
  EXPECT_EQ(base->clone_from_stage(Stage::Parse), nullptr);
  EXPECT_EQ(base->clone_from_stage(Stage::Emit), nullptr);
  // Stages that have not (successfully) run cannot be shared.
  const CompilationPtr partial = driver.run(kCounter, Stage::Sema);
  EXPECT_EQ(partial->clone_from_stage(Stage::Lower), nullptr);
  EXPECT_NE(partial->clone_from_stage(Stage::Sema), nullptr);
  const CompilationPtr failed = driver.run(kSemaError, Stage::Layout);
  EXPECT_EQ(failed->clone_from_stage(Stage::Sema), nullptr);
}

TEST(Driver, CloneKeepsDonorArtifactsAlive) {
  const CompilerDriver driver;
  CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());
  CompilationPtr clone = base->clone_from_stage(Stage::Lower);
  ASSERT_NE(clone, nullptr);
  base.reset();  // the clone co-owns the donor; artifacts must survive
  ASSERT_TRUE(driver.run_until(clone, Stage::Layout));
  EXPECT_EQ(clone->ir().arrays.front().name, "cnt");
  EXPECT_GT(clone->layout_stats().optimized_stages, 0);
}

TEST(Driver, ChainedClonesResolveThroughTheChain) {
  const CompilerDriver driver;
  const CompilationPtr base = driver.run(kCounter, Stage::Layout);
  ASSERT_TRUE(base->ok());
  const CompilationPtr mid = base->clone_from_stage(Stage::Lower);
  ASSERT_NE(mid, nullptr);
  ASSERT_TRUE(driver.run_until(mid, Stage::Layout));
  const CompilationPtr leaf = mid->clone_from_stage(Stage::Layout);
  ASSERT_NE(leaf, nullptr);
  // The front end resolves through mid to base; the layout is mid's own.
  EXPECT_EQ(&leaf->ast(), &base->ast());
  EXPECT_EQ(&leaf->pipeline(), &mid->pipeline());
  EXPECT_NE(&mid->pipeline(), &base->pipeline());
}

// ---------------------------------------------------------------------------
// Ownership: artifacts outlive the driver (the old dangling-reference hazard)
// ---------------------------------------------------------------------------

TEST(Driver, RuntimeKeepsCompilationAliveAfterDriverDies) {
  sim::Simulator simulator;
  pisa::SwitchConfig sc;
  sc.id = 1;
  pisa::Switch sw(simulator, sc);
  sched::EventScheduler node(sw, {});

  std::unique_ptr<interp::Runtime> runtime;
  {
    // Driver and the local CompilationPtr are destroyed at scope exit; the
    // Runtime must share ownership of the artifacts, not reference them.
    const CompilerDriver driver;
    const CompilationPtr comp = driver.run(kCounter, Stage::Layout);
    ASSERT_TRUE(comp->ok()) << comp->diags().render();
    runtime = std::make_unique<interp::Runtime>(comp, node);
  }

  for (int i = 0; i < 3; ++i) runtime->inject("bump", {7});
  simulator.run_until(10 * sim::kMs);
  EXPECT_EQ(runtime->stats().executions.at("bump"), 3u);
  EXPECT_EQ(runtime->array("cnt")->get(7), 3);
}

TEST(Driver, CompilationSharedAcrossRuntimesOutlivesTestbed) {
  CompilationPtr comp;
  {
    interp::Testbed tb(kCounter);
    ASSERT_TRUE(tb.ok()) << tb.diagnostics();
    comp = tb.compilation_ptr();
    tb.inject_and_run(1, "bump", {3});
    EXPECT_EQ(tb.node(1).array("cnt")->get(3), 1);
  }
  // The testbed (and its runtimes) are gone; the artifacts are still valid.
  EXPECT_TRUE(comp->ok());
  EXPECT_EQ(comp->ir().arrays.front().name, "cnt");
}

}  // namespace
}  // namespace lucid
