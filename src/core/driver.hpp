// Staged compiler driver: the primary public API of the Lucid compiler.
//
// Compilation is modelled as an explicit pipeline of stages, mirroring the
// paper's phase structure:
//
//   Parse   — lex + recursive-descent parse to the Lucid AST
//   Sema    — memop validation + the ordered type-and-effect system
//             (annotates the AST in place, produces AnalysisInfo)
//   Lower   — lowering to atomic table graphs (ProgramIR)
//   Layout  — branch inlining, dependency reordering, greedy merging into
//             a staged pipeline under a resource model
//   Emit    — backend code generation (P4_16, interpreter binding, ...)
//
// A `CompilerDriver` advances a ref-counted `Compilation` through these
// stages. Each stage records wall-clock time and the exact slice of
// diagnostics it produced, and each stage's artifact stays owned by (and
// queryable from) the Compilation — so callers can stop after any stage,
// inspect, and resume. Backends are looked up by name in a `BackendRegistry`
// so new targets can be added without touching the driver.
//
// Typical use:
//
//   CompilerDriver driver;
//   auto comp = driver.run(source);                 // Parse..Layout
//   if (!comp->ok()) { std::cerr << comp->diags().render(); ... }
//   BackendArtifact p4 = driver.emit(comp, "p4");   // Emit stage
//
// Staged use:
//
//   auto comp = driver.start(source);
//   driver.run_until(comp, Stage::Sema);            // front end only
//   ... inspect comp->ast(), comp->analysis() ...
//   driver.run_until(comp, Stage::Layout);          // resume where it left
//
// Ownership: `Compilation` is handed out as std::shared_ptr. Long-lived
// consumers (e.g. interp::Runtime) keep the artifacts alive by holding the
// pointer — the driver itself may be destroyed at any time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "frontend/ast.hpp"
#include "frontend/fingerprint.hpp"
#include "frontend/incremental_parse.hpp"
#include "ir/ir.hpp"
#include "opt/passes.hpp"
#include "sema/type_check.hpp"
#include "support/diagnostics.hpp"

namespace lucid {

/// Compiler/driver version, reported by `lucidc --version`.
inline constexpr std::string_view kLucidVersion = "0.10.0";

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

enum class Stage : int { Parse = 0, Sema, Lower, Layout, Emit };

inline constexpr int kNumStages = 5;

/// Stable lower-case stage name ("parse", "sema", "lower", "layout", "emit").
[[nodiscard]] std::string_view stage_name(Stage s);

/// Inverse of stage_name; nullopt for unknown names.
[[nodiscard]] std::optional<Stage> stage_from_name(std::string_view name);

/// Bookkeeping for one stage of one compilation.
struct StageRecord {
  Stage stage = Stage::Parse;
  bool ran = false;
  bool ok = false;
  /// True when this stage's artifact was inherited from a clone donor (see
  /// Compilation::clone_from_stage) instead of being executed here. wall_ms
  /// then still holds the donor's cost, so sweep reports can tell "paid once,
  /// shared N times" apart from "paid N times".
  bool shared = false;
  /// Layout only: true when the model-independent LayoutAnalysis (Phase A)
  /// was owned by a clone donor *and already computed* when this Layout
  /// stage started — the per-stage proof that a sweep paid for the analysis
  /// once. False for cold compiles and for the unlucky clone whose Layout
  /// run triggered the donor's computation: wall_ms then includes the Phase
  /// A cost, and the flag stays honest about who paid it.
  bool analysis_shared = false;
  /// Incremental recompiles only (CompilerDriver::recompile): how many
  /// top-level decls this stage served from the previous compilation
  /// instead of recomputing. For Parse that is decl nodes spliced from the
  /// previous AST by the span diff (frontend::incremental_parse); for Sema,
  /// decls whose body check was skipped (annotations mirror-copied) plus
  /// header-only decls the diff proved unchanged; for Lower, spliced handler
  /// graphs; for Layout, handlers whose Phase A artifacts were carried over
  /// by opt::update_layout_analysis. 0 for cold compiles and plain clones.
  int decls_reused = 0;
  double wall_ms = 0.0;
  /// Half-open index range into Compilation::diags().all() holding exactly
  /// the diagnostics this stage produced. For Stage::Emit this is the coarse
  /// span across every emit() call (stages run lazily in between may
  /// interleave); use Compilation::stage_diagnostics(Stage::Emit) for the
  /// exact per-backend set.
  std::size_t diag_begin = 0;
  std::size_t diag_end = 0;
};

// ---------------------------------------------------------------------------
// Compilation: the owned, queryable artifact bundle
// ---------------------------------------------------------------------------

struct DriverOptions {
  opt::ResourceModel model = opt::ResourceModel::tofino();
  /// Name used by emitters (P4 program name, artifact labels).
  std::string program_name = "program";
};

/// All middle-end artifacts, owned together.
struct Artifacts {
  frontend::Program program;  // annotated AST      (Parse, annotated by Sema)
  sema::AnalysisInfo info;    // effect summaries   (Sema)
  ir::ProgramIR ir;           // atomic table graphs (Lower)
  opt::Pipeline pipeline;     // optimized layout    (Layout)
  opt::LayoutStats stats;     // Fig 12/13 numbers   (Layout)
};

class Compilation : public std::enable_shared_from_this<Compilation> {
 public:
  Compilation(std::string source, DriverOptions options);

  // -- status ---------------------------------------------------------------
  /// True while no stage that ran has failed.
  [[nodiscard]] bool ok() const;
  [[nodiscard]] bool ran(Stage s) const { return record(s).ran; }
  [[nodiscard]] bool succeeded(Stage s) const {
    return record(s).ran && record(s).ok;
  }
  /// The most advanced stage that has run, if any.
  [[nodiscard]] std::optional<Stage> last_stage() const;

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const DriverOptions& options() const { return options_; }

  // -- artifacts (valid once the named stage has succeeded) -----------------
  // Accessors forward to the clone donor for inherited stages, so a clone
  // and its donor literally return the same objects (tests assert on address
  // equality to prove artifacts are shared, not recomputed).
  [[nodiscard]] const frontend::Program& ast() const {
    return inherits(Stage::Parse) ? donor_->ast() : artifacts_.program;
  }
  [[nodiscard]] const sema::AnalysisInfo& analysis() const {
    return inherits(Stage::Sema) ? donor_->analysis() : artifacts_.info;
  }
  [[nodiscard]] const ir::ProgramIR& ir() const {
    return inherits(Stage::Lower) ? donor_->ir() : artifacts_.ir;
  }
  [[nodiscard]] const opt::Pipeline& pipeline() const {
    return inherits(Stage::Layout) ? donor_->pipeline() : artifacts_.pipeline;
  }
  [[nodiscard]] const opt::LayoutStats& layout_stats() const {
    return inherits(Stage::Layout) ? donor_->layout_stats() : artifacts_.stats;
  }

  // -- layout analysis (Phase A) --------------------------------------------
  /// The model-independent layout analysis (opt::LayoutAnalysis): branch
  /// inlining, dependency edges, ASAP levels, the sorted item order, interned
  /// symbols, and the disjointness matrix — everything Layout needs that does
  /// not depend on the ResourceModel. Computed lazily exactly once per
  /// source: clones resolve through their donor chain, so a sweep's variants
  /// all share the one analysis their common front end owns. Thread-safe
  /// (std::call_once) — concurrent variants may race the first access.
  /// Valid once Stage::Lower has succeeded.
  [[nodiscard]] std::shared_ptr<const opt::LayoutAnalysis>
  layout_analysis_ptr() const;
  [[nodiscard]] const opt::LayoutAnalysis& layout_analysis() const {
    return *layout_analysis_ptr();
  }
  /// The compilation whose call_once computes (or computed) the analysis:
  /// `this` for a cold compile, the root clone donor otherwise. Layout's
  /// StageRecord::analysis_shared is derived from it.
  [[nodiscard]] const Compilation* analysis_home() const {
    return inherits(Stage::Lower) ? donor_->analysis_home() : this;
  }
  /// True once the analysis has been computed (a peek — never computes).
  [[nodiscard]] bool analysis_ready() const {
    return inherits(Stage::Lower)
               ? donor_->analysis_ready()
               : analysis_ready_.load(std::memory_order_acquire);
  }

  // -- structural fingerprints ----------------------------------------------
  /// The per-decl structural fingerprints of ast()
  /// (frontend::fingerprint_program), computed lazily exactly once and
  /// cached — recompiles diff against them, so a compilation that serves as
  /// `prev` for many edits pays for its canonical prints once. Clones
  /// resolve through the donor chain (same AST, same fingerprints).
  /// Thread-safe (std::call_once). Valid once Stage::Parse has succeeded.
  [[nodiscard]] const std::vector<frontend::DeclFingerprint>&
  decl_fingerprints() const;
  /// frontend::structural_hash over decl_fingerprints().
  [[nodiscard]] std::uint64_t structural_hash() const {
    return frontend::structural_hash(decl_fingerprints());
  }

  /// The top-level decl span table of source() (frontend::scan_decl_spans),
  /// or nullptr when the buffer defeats the scanner. Computed lazily exactly
  /// once: an incremental parse stores the table it already scanned for its
  /// own buffer, a cold compile scans on first use as a recompile donor —
  /// either way, serving as `prev` for any number of edits costs one scan,
  /// and each edit scans only its own buffer. Clones resolve through the
  /// donor chain (same source, same spans). Thread-safe (std::call_once).
  [[nodiscard]] const std::vector<frontend::DeclSpan>* decl_spans() const;

  // -- cloning --------------------------------------------------------------
  /// Forks this compilation after stage `upto`: the clone shares (does not
  /// copy or re-run) every artifact through `upto` and runs later stages
  /// itself, under `options` (defaults to the donor's options). This is the
  /// primitive behind resource-model sweeps and formatting-only recompiles:
  /// Parse,
  /// Sema, and Lower are option-independent, so one front-end run can feed
  /// any number of Layout/Emit variants.
  ///
  /// `upto` must be within [Sema, Layout] — cloning at Parse is forbidden
  /// because Sema annotates the shared AST in place, which would race across
  /// clones — and every stage through `upto` must have succeeded here;
  /// otherwise returns nullptr. The clone keeps the donor alive (shared
  /// ownership) and copies its diagnostics and stage records for the shared
  /// stages, with StageRecord::shared set.
  ///
  /// Concurrency: the shared artifacts are immutable (stages never re-run),
  /// so any number of clones may run their remaining stages and emit on
  /// different threads concurrently, as long as each individual Compilation
  /// is driven by one thread at a time.
  [[nodiscard]] std::shared_ptr<Compilation> clone_from_stage(
      Stage upto, std::optional<DriverOptions> options = std::nullopt) const;

  /// True for compilations created by clone_from_stage.
  [[nodiscard]] bool is_clone() const { return donor_ != nullptr; }
  /// The donor compilation (nullptr unless is_clone()).
  [[nodiscard]] const Compilation* donor() const { return donor_.get(); }

  // -- diagnostics ----------------------------------------------------------
  [[nodiscard]] DiagnosticEngine& diags() { return diags_; }
  [[nodiscard]] const DiagnosticEngine& diags() const { return diags_; }

  /// The diagnostics produced by exactly this stage (empty if it never ran).
  [[nodiscard]] std::vector<Diagnostic> stage_diagnostics(Stage s) const;

  // -- timings --------------------------------------------------------------
  [[nodiscard]] const StageRecord& record(Stage s) const {
    return records_[static_cast<std::size_t>(s)];
  }
  /// Records of stages that ran, in pipeline order.
  [[nodiscard]] std::vector<StageRecord> records() const;
  /// Sum of wall_ms over stages that ran.
  [[nodiscard]] double total_wall_ms() const;
  /// Human-readable `--time-passes` table.
  [[nodiscard]] std::string timing_report() const;
  /// Machine-readable `--time-passes=json` object: program name, one record
  /// per ran stage (stage, wall_ms, ok, shared, analysis_shared), and the
  /// total. Printed by `lucidc --time-passes=json`, which CI parses;
  /// bench_frontend reads the same StageRecords directly.
  [[nodiscard]] std::string timing_report_json() const;

 private:
  friend class CompilerDriver;

  [[nodiscard]] StageRecord& mutable_record(Stage s) {
    return records_[static_cast<std::size_t>(s)];
  }

  /// True when stage `s`'s artifact lives in the clone donor.
  [[nodiscard]] bool inherits(Stage s) const {
    return donor_ != nullptr && static_cast<int>(s) <= inherited_until_;
  }

  std::string source_;
  DriverOptions options_;
  DiagnosticEngine diags_;
  Artifacts artifacts_;
  std::array<StageRecord, kNumStages> records_;
  /// Exact diagnostic ranges per emit() call (middle-end stages that emit()
  /// runs lazily can interleave, so Emit needs more than one span).
  std::vector<std::pair<std::size_t, std::size_t>> emit_diag_ranges_;
  /// Clone-from-stage donor: stages <= inherited_until_ resolve through it.
  std::shared_ptr<const Compilation> donor_;
  int inherited_until_ = -1;
  /// Lazily computed Phase A artifact (see layout_analysis_ptr). Mutable:
  /// the first access may come through a const donor pointer shared by many
  /// concurrently running clones; call_once makes that race benign.
  mutable std::once_flag analysis_once_;
  mutable std::shared_ptr<const opt::LayoutAnalysis> analysis_;
  mutable std::atomic<bool> analysis_ready_{false};
  /// Lazily computed decl fingerprints (see decl_fingerprints()).
  mutable std::once_flag fingerprints_once_;
  mutable std::vector<frontend::DeclFingerprint> fingerprints_;
  /// Lazily computed (or incremental-parse-seeded) span table of source_
  /// (see decl_spans()); nullopt after a failed scan.
  mutable std::once_flag spans_once_;
  mutable std::optional<std::vector<frontend::DeclSpan>> spans_;
  /// Incremental-recompile support (CompilerDriver::recompile). When set
  /// before Parse runs, run_stage tries frontend::incremental_parse against
  /// this previous compilation, splicing unchanged decl nodes by pointer.
  /// Held for the compilation's lifetime: spliced nodes are shared with
  /// (and their allocations co-owned through) prev's AST.
  std::shared_ptr<const Compilation> parse_reuse_prev_;
  /// Parallel to ast().decls after an incremental parse: the prev decl
  /// index each decl was spliced from, -1 for freshly parsed decls. Empty
  /// when the parse was cold.
  std::vector<int> parse_spliced_from_;
  /// Parallel to parse_spliced_from_: each decl's index into decl_spans().
  std::vector<std::size_t> parse_span_of_;
  /// Set by CompilerDriver::recompile after its structural diff: run_stage's
  /// Sema re-checks and Lower re-lowers only the decls the plan did not
  /// prove unchanged (decl_reuse_from_[i] < 0, parallel to ast().decls),
  /// taking the rest from this previous compilation.
  std::shared_ptr<const Compilation> decl_reuse_prev_;
  std::vector<int> decl_reuse_from_;
  /// When set, layout_analysis_ptr() first patches this compilation's
  /// (already computed) Phase A analysis via opt::update_layout_analysis,
  /// re-analyzing only analysis_dirty_handlers_; falls back to a cold
  /// analyze_layout when patching is unsound.
  std::shared_ptr<const Compilation> analysis_reuse_prev_;
  std::set<std::string> analysis_dirty_handlers_;
  /// Handlers the last update_layout_analysis carried over (0 when the
  /// analysis was computed cold); surfaced as Layout's decls_reused.
  mutable int analysis_handlers_reused_ = 0;
};

using CompilationPtr = std::shared_ptr<Compilation>;
using ConstCompilationPtr = std::shared_ptr<const Compilation>;

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// What a backend hands back from Emit. `text` is the primary printable
/// artifact (P4 source, binding summary, ...); `metrics` carries
/// backend-specific counters (e.g. P4 LoC per category).
struct BackendArtifact {
  std::string backend;
  bool ok = false;
  std::string text;
  std::map<std::string, std::int64_t> metrics;
};

class Backend {
 public:
  virtual ~Backend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;
  /// The latest stage that must have succeeded before emit() may run.
  [[nodiscard]] virtual Stage required_stage() const { return Stage::Layout; }
  /// Emits from a completed compilation. Diagnostics go to comp.diags().
  [[nodiscard]] virtual BackendArtifact emit(Compilation& comp) = 0;
};

/// Name -> backend lookup. The process-wide default registry is
/// `BackendRegistry::global()`; `register_default_backends()`
/// (core/backends.hpp) populates it with "p4", "interp", and "ebpf".
class BackendRegistry {
 public:
  /// The process-wide default registry.
  [[nodiscard]] static BackendRegistry& global();

  /// Registers a backend; returns false (and drops it) on a name collision.
  bool add(std::unique_ptr<Backend> backend);
  [[nodiscard]] Backend* find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;  // sorted
  [[nodiscard]] std::size_t size() const { return backends_.size(); }

 private:
  std::vector<std::unique_ptr<Backend>> backends_;
};

// ---------------------------------------------------------------------------
// CompilerDriver
// ---------------------------------------------------------------------------

class CompilerDriver {
 public:
  explicit CompilerDriver(DriverOptions options = {},
                          BackendRegistry* registry = nullptr);

  [[nodiscard]] const DriverOptions& options() const { return options_; }
  [[nodiscard]] BackendRegistry& registry() const { return *registry_; }

  /// Creates a Compilation for `source` without running any stage.
  [[nodiscard]] CompilationPtr start(std::string_view source) const;

  /// Runs every not-yet-run stage up to and including `until` (clamped to
  /// Layout — emission goes through emit()). Already-run stages are not
  /// re-run, so this is also "resume". Returns comp->ok().
  bool run_until(const CompilationPtr& comp, Stage until) const;

  /// Runs the single next pending stage (up to Layout). Returns false when
  /// there is nothing left to run or an earlier stage failed.
  bool run_next(const CompilationPtr& comp) const;

  /// start + run_until in one call.
  [[nodiscard]] CompilationPtr run(std::string_view source,
                                   Stage until = Stage::Layout) const;

  /// Incremental edit pipeline: compiles `source` through Lower by reusing
  /// everything `prev` already computed for an earlier version of the same
  /// program. Parse always runs (it is the diff's input); the new decl
  /// fingerprints are then diffed against `prev`'s
  /// (sema::plan_recompile):
  ///
  ///   * structurally identical (whitespace/comment/formatting edits only):
  ///     the result is a clone of `prev` — no stage past Parse re-runs, and
  ///     when `prev` completed Layout under these options the Layout
  ///     artifact is inherited too;
  ///   * partial edit: Sema re-checks and Lower re-lowers only the dirty
  ///     decl set (the edited decls plus transitive dependents per the
  ///     DeclDepGraph), mirror-copying annotations and splicing handler
  ///     graphs for the rest. StageRecord::decls_reused records the reuse.
  ///
  /// The result is byte-identical to a cold compile of `source` for every
  /// backend and for interpreter execution (differential-tested). Falls
  /// back to a cold compile when `prev` is null or its front end did not
  /// succeed; returns early (like run) when the new source fails a stage.
  /// `until` (clamped to [Parse, Lower]) bounds how deep the recompile
  /// drives — Parse skips the diff entirely, Sema stops before Lower — so
  /// `--stop-after` keeps its meaning under `--incremental-from`.
  /// `prev` is only read — any number of recompiles and sweeps may share it
  /// concurrently.
  [[nodiscard]] CompilationPtr recompile(const ConstCompilationPtr& prev,
                                         std::string_view source,
                                         Stage until = Stage::Lower) const;

  /// Looks `backend` up in the registry, runs any stages it still needs, and
  /// emits. Unknown backend or failed prerequisite stages produce an error
  /// diagnostic on the compilation ("driver-unknown-backend" /
  /// "driver-stage-failed") and an artifact with ok == false — never a crash.
  /// The Emit StageRecord aggregates across emit() calls: wall time
  /// accumulates and ok holds only if every emission so far succeeded.
  [[nodiscard]] BackendArtifact emit(const CompilationPtr& comp,
                                     std::string_view backend) const;

 private:
  bool run_stage(Compilation& c, Stage s) const;

  DriverOptions options_;
  BackendRegistry* registry_;
};

}  // namespace lucid
