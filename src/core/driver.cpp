#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "frontend/incremental_parse.hpp"
#include "frontend/parser.hpp"
#include "ir/ir.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sema/depgraph.hpp"
#include "support/chrono.hpp"
#include "support/json.hpp"

namespace lucid {

namespace {

using Clock = SteadyClock;

constexpr std::array<std::string_view, kNumStages> kStageNames = {
    "parse", "sema", "lower", "layout", "emit"};

obs::Counter& layout_restarts_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lucid_layout_restarts_total",
      "Layout placement attempts abandoned to move an array pin");
  return c;
}

/// Publishes one stage run to the registry: its wall time and the decls it
/// took from a previous compilation (run_stage and emit call it).
void publish_stage(Stage s, double wall_ms, int decls_reused) {
  auto& reg = obs::Registry::global();
  const obs::Labels labels{{"stage", std::string(stage_name(s))}};
  reg.histogram("lucid_compiler_stage_ns", labels,
                "Wall time of one compiler stage run (ns)")
      .observe(static_cast<std::uint64_t>(wall_ms * 1e6));
  reg.counter("lucid_compiler_decls_reused_total", labels,
              "Decls a compiler stage took from a previous compilation")
      .add(static_cast<std::uint64_t>(decls_reused));
}

}  // namespace

std::string_view stage_name(Stage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}

std::optional<Stage> stage_from_name(std::string_view name) {
  for (int i = 0; i < kNumStages; ++i) {
    if (kStageNames[static_cast<std::size_t>(i)] == name) {
      return static_cast<Stage>(i);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

Compilation::Compilation(std::string source, DriverOptions options)
    : source_(std::move(source)),
      options_(std::move(options)),
      diags_(source_) {
  for (int i = 0; i < kNumStages; ++i) {
    records_[static_cast<std::size_t>(i)].stage = static_cast<Stage>(i);
  }
}

bool Compilation::ok() const {
  for (const auto& r : records_) {
    if (r.ran && !r.ok) return false;
  }
  return true;
}

std::optional<Stage> Compilation::last_stage() const {
  std::optional<Stage> last;
  for (const auto& r : records_) {
    if (r.ran) last = r.stage;
  }
  return last;
}

const std::vector<frontend::DeclFingerprint>& Compilation::decl_fingerprints()
    const {
  if (inherits(Stage::Parse)) return donor_->decl_fingerprints();
  std::call_once(fingerprints_once_,
                 [this] { fingerprints_ = frontend::fingerprint_program(ast()); });
  return fingerprints_;
}

const std::vector<frontend::DeclSpan>* Compilation::decl_spans() const {
  if (inherits(Stage::Parse)) return donor_->decl_spans();
  std::call_once(spans_once_,
                 [this] { spans_ = frontend::scan_decl_spans(source_); });
  return spans_.has_value() ? &*spans_ : nullptr;
}

std::shared_ptr<const opt::LayoutAnalysis> Compilation::layout_analysis_ptr()
    const {
  // Clones resolve through the donor chain so the whole clone family shares
  // one analysis object (and one computation).
  if (inherits(Stage::Lower)) return donor_->layout_analysis_ptr();
  std::call_once(analysis_once_, [this] {
    // Incremental recompiles patch the previous compilation's analysis,
    // re-running branch inlining / dependency analysis / the same-handler
    // disjointness block only for the dirty handlers. Only when prev has
    // already paid for its analysis — patching an uncomputed one would cost
    // more than a cold run. nullptr (unsound patch) falls through cold.
    if (analysis_reuse_prev_ != nullptr && analysis_reuse_prev_->analysis_ready()) {
      analysis_ = opt::update_layout_analysis(
          *analysis_reuse_prev_->layout_analysis_ptr(), ir(),
          analysis_dirty_handlers_, 64, &analysis_handlers_reused_);
    }
    if (analysis_ == nullptr) {
      analysis_handlers_reused_ = 0;
      analysis_ = opt::analyze_layout(ir());
    }
    analysis_ready_.store(true, std::memory_order_release);
  });
  return analysis_;
}

CompilationPtr Compilation::clone_from_stage(
    Stage upto, std::optional<DriverOptions> options) const {
  const int last = static_cast<int>(upto);
  if (last < static_cast<int>(Stage::Sema) ||
      last > static_cast<int>(Stage::Layout)) {
    return nullptr;
  }
  for (int i = 0; i <= last; ++i) {
    if (!succeeded(static_cast<Stage>(i))) return nullptr;
  }

  auto clone = std::make_shared<Compilation>(
      source_, options.has_value() ? std::move(*options) : options_);
  clone->donor_ = shared_from_this();
  clone->inherited_until_ = last;
  // Replay the shared stages' records and diagnostics so the clone is
  // indistinguishable from a cold compile (same diagnostics, same stage
  // ranges) except for the `shared` marker.
  for (int i = 0; i <= last; ++i) {
    const Stage s = static_cast<Stage>(i);
    StageRecord& rec = clone->mutable_record(s);
    rec = record(s);
    rec.shared = true;
    rec.diag_begin = clone->diags_.all().size();
    for (const Diagnostic& d : stage_diagnostics(s)) {
      clone->diags_.add(d.severity, d.range, d.code, d.message);
    }
    rec.diag_end = clone->diags_.all().size();
  }
  return clone;
}

std::vector<Diagnostic> Compilation::stage_diagnostics(Stage s) const {
  const StageRecord& r = record(s);
  std::vector<Diagnostic> out;
  if (!r.ran) return out;
  const auto& all = diags_.all();
  if (s == Stage::Emit) {
    // Exact per-emit spans: middle-end stages that emit() ran lazily sit
    // between them and must not be attributed to Emit.
    for (const auto& [begin, end] : emit_diag_ranges_) {
      for (std::size_t i = begin; i < end && i < all.size(); ++i) {
        out.push_back(all[i]);
      }
    }
    return out;
  }
  for (std::size_t i = r.diag_begin; i < r.diag_end && i < all.size(); ++i) {
    out.push_back(all[i]);
  }
  return out;
}

std::vector<StageRecord> Compilation::records() const {
  std::vector<StageRecord> out;
  for (const auto& r : records_) {
    if (r.ran) out.push_back(r);
  }
  return out;
}

double Compilation::total_wall_ms() const {
  double total = 0.0;
  for (const auto& r : records_) {
    if (r.ran) total += r.wall_ms;
  }
  return total;
}

std::string Compilation::timing_report() const {
  std::ostringstream os;
  os << "=== pass timings (" << options_.program_name << ") ===\n";
  char buf[128];
  for (const auto& r : records_) {
    if (!r.ran) continue;
    std::string reuse;
    if (r.decls_reused > 0) {
      reuse = " (reused " + std::to_string(r.decls_reused) + " decls)";
    }
    std::snprintf(buf, sizeof(buf), "  %-8s %9.3f ms  %s%s%s%s\n",
                  std::string(stage_name(r.stage)).c_str(), r.wall_ms,
                  r.ok ? "ok" : "FAILED", r.shared ? " (shared)" : "",
                  r.analysis_shared ? " (analysis shared)" : "",
                  reuse.c_str());
    os << buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-8s %9.3f ms\n", "total",
                total_wall_ms());
  os << buf;
  return os.str();
}

std::string Compilation::timing_report_json() const {
  // Shares the tree-wide JSON emission path (support/json.hpp) with
  // `--metrics-out`, the trace export, and the bench result files.
  support::JsonWriter j;
  j.obj_open().field("program", options_.program_name);
  j.arr_open("stages");
  for (const auto& r : records_) {
    if (!r.ran) continue;
    j.obj_open()
        .field("stage", stage_name(r.stage))
        .field("wall_ms", r.wall_ms)
        .field("ok", r.ok)
        .field("shared", r.shared)
        .field("analysis_shared", r.analysis_shared)
        .field("decls_reused", r.decls_reused)
        .obj_close();
  }
  j.arr_close().field("total_wall_ms", total_wall_ms()).obj_close();
  return j.str() + "\n";
}

// ---------------------------------------------------------------------------
// BackendRegistry
// ---------------------------------------------------------------------------

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry registry;
  return registry;
}

bool BackendRegistry::add(std::unique_ptr<Backend> backend) {
  if (!backend) return false;
  if (find(backend->name()) != nullptr) return false;
  backends_.push_back(std::move(backend));
  return true;
}

Backend* BackendRegistry::find(std::string_view name) const {
  for (const auto& b : backends_) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// CompilerDriver
// ---------------------------------------------------------------------------

CompilerDriver::CompilerDriver(DriverOptions options, BackendRegistry* registry)
    : options_(std::move(options)),
      registry_(registry != nullptr ? registry : &BackendRegistry::global()) {}

CompilationPtr CompilerDriver::start(std::string_view source) const {
  return std::make_shared<Compilation>(std::string(source), options_);
}

bool CompilerDriver::run_stage(Compilation& c, Stage s) const {
  StageRecord& rec = c.mutable_record(s);
  if (rec.ran) return rec.ok;

  rec.diag_begin = c.diags_.all().size();
  // Success is judged on the errors *this* stage adds, so diagnostics from
  // unrelated sources (e.g. an earlier unknown-backend emit attempt) cannot
  // retroactively fail a clean stage.
  const std::size_t errors_before = c.diags_.error_count();
  obs::ScopedSpan span("compiler", stage_name(s));
  span.arg("program", c.options_.program_name);
  const auto t0 = Clock::now();
  bool ok = false;
  switch (s) {
    case Stage::Parse: {
      // Recompiles (parse_reuse_prev_ set) re-lex/re-parse only the decl
      // spans the byte diff touched, splicing unchanged decl nodes from the
      // previous AST; any scan/splice failure falls back to a cold parse.
      bool parsed = false;
      if (c.parse_reuse_prev_ != nullptr &&
          c.parse_reuse_prev_->succeeded(Stage::Parse)) {
        // prev's span table is cached on prev (one scan amortized over all
        // edits against it); only this compilation's buffer is scanned here.
        const auto* prev_spans = c.parse_reuse_prev_->decl_spans();
        if (prev_spans != nullptr) {
          if (auto inc = frontend::incremental_parse(
                  c.source_, c.parse_reuse_prev_->source(), *prev_spans,
                  c.parse_reuse_prev_->ast(), c.diags_)) {
            c.artifacts_.program = std::move(inc->program);
            c.parse_spliced_from_ = std::move(inc->spliced_from);
            c.parse_span_of_ = std::move(inc->span_of);
            // Seed this compilation's span cache with the table the splice
            // already scanned — if it becomes the next edit's prev, its scan
            // is already paid for.
            std::call_once(c.spans_once_,
                           [&] { c.spans_ = std::move(inc->spans); });
            rec.decls_reused = inc->reused;
            parsed = true;
          }
        }
      }
      if (!parsed) {
        c.artifacts_.program = frontend::Parser::parse(c.source_, c.diags_);
      }
      ok = c.diags_.error_count() == errors_before;
      break;
    }
    case Stage::Sema: {
      // A recompile (decl_reuse_prev_ set) re-checks only the dirty decls.
      const Compilation* prev = c.decl_reuse_prev_.get();
      sema::SemaReuse reuse;
      if (prev != nullptr) {
        reuse.prev = &prev->ast();
        reuse.prev_info = &prev->analysis();
        reuse.reuse_from = c.decl_reuse_from_;
      }
      sema::TypeChecker tc(c.diags_);
      ok = tc.check(c.artifacts_.program, prev != nullptr ? &reuse : nullptr) &&
           c.diags_.error_count() == errors_before;
      c.artifacts_.info = tc.info();
      rec.decls_reused = static_cast<int>(tc.decls_reused());
      break;
    }
    case Stage::Lower: {
      // A recompile splices the graphs of handlers its plan proved
      // unchanged from prev's IR.
      const Compilation* prev = c.decl_reuse_prev_.get();
      ir::LowerReuse reuse;
      const auto& decls = c.ast().decls;
      if (prev != nullptr) {
        reuse.prev = &prev->ir();
        for (std::size_t i = 0;
             i < decls.size() && i < c.decl_reuse_from_.size(); ++i) {
          if (c.decl_reuse_from_[i] >= 0 &&
              decls[i]->kind == frontend::DeclKind::Handler) {
            reuse.handlers.insert(decls[i]->name);
          }
        }
      }
      std::size_t spliced = 0;
      // Read through the accessor: a clone's AST lives in its donor.
      c.artifacts_.ir = ir::lower(c.ast(), c.diags_,
                                  prev != nullptr ? &reuse : nullptr, &spliced);
      ok = c.diags_.error_count() == errors_before;
      rec.decls_reused = static_cast<int>(spliced);
      if (ok && prev != nullptr) {
        // Arm the incremental Phase A: when Layout later runs, handlers
        // whose graphs were spliced (unchanged) keep their analysis from
        // prev; the rest (edited or new) are re-analyzed.
        c.analysis_reuse_prev_ = c.decl_reuse_prev_;
        for (const auto& d : decls) {
          if (d->kind == frontend::DeclKind::Handler &&
              reuse.handlers.count(d->name) == 0) {
            c.analysis_dirty_handlers_.insert(d->name);
          }
        }
      }
      break;
    }
    case Stage::Layout: {
      // Phase A (model-independent) comes off the compilation — computed
      // here for a cold compile, inherited from the clone donor otherwise.
      // "Shared" only when someone else both owns it *and* already computed
      // it: a clone whose Layout run triggers the donor's call_once pays the
      // cost in this record's wall_ms, and the flag must say so.
      rec.analysis_shared = c.analysis_home() != &c && c.analysis_ready();
      c.artifacts_.pipeline =
          opt::layout(c.layout_analysis_ptr(), c.options_.model, c.diags_);
      layout_restarts_counter().add(
          static_cast<std::uint64_t>(c.artifacts_.pipeline.restarts));
      // When this compilation owns the analysis and it was patched from a
      // previous compilation's (incremental recompile), surface how many
      // handlers were carried over.
      if (c.analysis_home() == &c) {
        rec.decls_reused = c.analysis_handlers_reused_;
      }
      c.artifacts_.stats.unoptimized_stages = c.ir().total_longest_path();
      c.artifacts_.stats.optimized_stages =
          c.artifacts_.pipeline.stage_count();
      c.artifacts_.stats.ops_per_stage = c.artifacts_.pipeline.ops_per_stage();
      c.artifacts_.stats.fits = c.artifacts_.pipeline.fits;
      ok = c.diags_.error_count() == errors_before;
      break;
    }
    case Stage::Emit:
      // Emission runs through CompilerDriver::emit (it needs a backend).
      return false;
  }
  rec.wall_ms = ms_since(t0);
  rec.diag_end = c.diags_.all().size();
  rec.ran = true;
  rec.ok = ok;
  publish_stage(s, rec.wall_ms, rec.decls_reused);
  return ok;
}

bool CompilerDriver::run_until(const CompilationPtr& comp, Stage until) const {
  if (!comp) return false;
  const int last = std::min(static_cast<int>(until),
                            static_cast<int>(Stage::Layout));
  for (int i = 0; i <= last; ++i) {
    if (!run_stage(*comp, static_cast<Stage>(i))) return false;
  }
  // Judged on the requested middle-end stages only: a failed Emit record
  // (e.g. one bad backend) must not poison later runs or emits.
  return comp->succeeded(static_cast<Stage>(last));
}

bool CompilerDriver::run_next(const CompilationPtr& comp) const {
  if (!comp) return false;
  for (int i = 0; i <= static_cast<int>(Stage::Layout); ++i) {
    const Stage s = static_cast<Stage>(i);
    if (!comp->ran(s)) return run_stage(*comp, s);
    if (!comp->succeeded(s)) return false;  // blocked on an earlier failure
  }
  return false;  // middle end already complete
}

CompilationPtr CompilerDriver::run(std::string_view source, Stage until) const {
  CompilationPtr comp = start(source);
  run_until(comp, until);
  return comp;
}

CompilationPtr CompilerDriver::recompile(const ConstCompilationPtr& prev,
                                         std::string_view source,
                                         Stage until) const {
  const int last = std::min(static_cast<int>(until),
                            static_cast<int>(Stage::Lower));
  CompilationPtr comp = start(source);
  if (prev != nullptr && prev->succeeded(Stage::Parse)) {
    comp->parse_reuse_prev_ = prev;  // arms the incremental parse
  }
  if (!run_stage(*comp, Stage::Parse)) return comp;
  if (last <= static_cast<int>(Stage::Parse)) return comp;  // no diff needed
  if (prev == nullptr || !prev->succeeded(Stage::Lower)) {
    run_until(comp, static_cast<Stage>(last));  // nothing reusable: cold
    return comp;
  }

  // After an incremental parse, spliced decls are byte-identical to their
  // prev counterparts, so their fingerprints are prev's — seed the cache so
  // the diff below canonically prints only the re-parsed decls (O(edit),
  // not O(program)).
  if (!comp->parse_spliced_from_.empty()) {
    std::call_once(comp->fingerprints_once_, [&] {
      const auto& prev_fps = prev->decl_fingerprints();
      const auto& decls = comp->artifacts_.program.decls;
      comp->fingerprints_.reserve(decls.size());
      for (std::size_t i = 0; i < decls.size(); ++i) {
        const int from = comp->parse_spliced_from_[i];
        if (from >= 0 && static_cast<std::size_t>(from) < prev_fps.size()) {
          comp->fingerprints_.push_back(prev_fps[static_cast<std::size_t>(from)]);
        } else {
          comp->fingerprints_.push_back(frontend::fingerprint_decl(*decls[i]));
        }
      }
    });
  }

  // Both fingerprint vectors are cached on their compilations: prev pays
  // for its canonical prints once across any number of edits, and comp's
  // carry over if it becomes the next edit's prev.
  const sema::RecompilePlan plan =
      sema::plan_recompile(prev->ast(), prev->decl_fingerprints(),
                           comp->artifacts_.program,
                           comp->decl_fingerprints());

  if (plan.identical) {
    // Whitespace/comment/formatting-only edit: nothing past Parse re-runs.
    // Inherit Layout too when prev completed it under these options (only
    // when the caller wants the full front end).
    Stage upto = static_cast<Stage>(last);
    if (last == static_cast<int>(Stage::Lower) &&
        prev->succeeded(Stage::Layout) &&
        prev->options().model == options_.model) {
      upto = Stage::Layout;
    }
    if (CompilationPtr hit = prev->clone_from_stage(upto, options_)) {
      // The clone carries the donor's (structurally equivalent) source;
      // swap in the bytes the caller actually compiled.
      hit->source_ = std::string(source);
      hit->diags_.set_source(hit->source_);
      StageRecord& parse = hit->mutable_record(Stage::Parse);
      parse.wall_ms = comp->record(Stage::Parse).wall_ms;  // the diff's parse
      const int n = static_cast<int>(plan.reuse_from.size());
      parse.decls_reused = n;
      hit->mutable_record(Stage::Sema).decls_reused = n;
      if (last >= static_cast<int>(Stage::Lower)) {
        hit->mutable_record(Stage::Lower).decls_reused =
            static_cast<int>(prev->ir().handlers.size());
      }
      return hit;
    }
    // prev refused to clone (should not happen after the succeeded checks);
    // the partial path below recomputes whatever it cannot reuse.
  }

  // Spliced decl nodes are shared with prev's AST and keep prev's source
  // positions. Clean decls are only ever written with values they already
  // hold (Sema's header annotations are conditional), but a dirty decl's
  // body check mutates expression types in place and reports against its
  // ranges — re-parse those from their spans in this buffer before Sema
  // runs, so prev stays immutable (it may be serving other
  // recompiles/sweeps) and diagnostics match a cold compile's.
  if (!plan.identical && !comp->parse_spliced_from_.empty()) {
    const std::vector<frontend::DeclSpan>& spans = *comp->decl_spans();
    auto& decls = comp->artifacts_.program.decls;
    for (std::size_t i = 0;
         i < decls.size() && i < plan.reuse_from.size(); ++i) {
      if (comp->parse_spliced_from_[i] < 0 || plan.reuse_from[i] >= 0) {
        continue;
      }
      frontend::Program piece = frontend::parse_span(
          comp->source_, spans[comp->parse_span_of_[i]], comp->diags_);
      // A spliced span held exactly this decl in prev; anything else means
      // the span table and the AST disagree, so compile cold instead.
      if (piece.decls.size() != 1) {
        return run(source, static_cast<Stage>(last));
      }
      decls[i] = std::move(piece.decls.front());
    }
  }

  // Sema and Lower run like any other stage; run_stage reads the armed plan
  // and redoes only the decls it did not prove unchanged.
  comp->decl_reuse_prev_ = prev;
  comp->decl_reuse_from_ = plan.reuse_from;
  run_until(comp, static_cast<Stage>(last));
  return comp;
}

BackendArtifact CompilerDriver::emit(const CompilationPtr& comp,
                                     std::string_view backend_name) const {
  BackendArtifact artifact;
  artifact.backend = std::string(backend_name);
  if (!comp) return artifact;

  Backend* backend = registry_->find(backend_name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& n : registry_->names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    comp->diags().error({}, "driver-unknown-backend",
                        "unknown backend '" + artifact.backend +
                            "'; registered backends: " +
                            (known.empty() ? "<none>" : known));
    return artifact;
  }

  if (!run_until(comp, backend->required_stage())) {
    comp->diags().error({}, "driver-stage-failed",
                        "cannot emit with backend '" + artifact.backend +
                            "': stage '" +
                            std::string(stage_name(backend->required_stage())) +
                            "' did not complete successfully");
    return artifact;
  }

  // The Emit record aggregates across emit() calls: wall time accumulates,
  // the coarse diagnostics range spans every backend's output, and ok holds
  // only if every emission succeeded. Exact per-emit spans are kept in
  // emit_diag_ranges_ (middle-end stages run lazily above may interleave).
  StageRecord& rec = comp->mutable_record(Stage::Emit);
  const std::size_t diag_begin = comp->diags().all().size();
  if (!rec.ran) rec.diag_begin = diag_begin;
  obs::ScopedSpan span("compiler", "emit");
  span.arg("backend", backend_name);
  const auto t0 = Clock::now();
  artifact = backend->emit(*comp);
  artifact.backend = std::string(backend_name);
  const double emit_ms = ms_since(t0);
  publish_stage(Stage::Emit, emit_ms, 0);
  rec.wall_ms += emit_ms;
  rec.diag_end = comp->diags().all().size();
  comp->emit_diag_ranges_.emplace_back(diag_begin, rec.diag_end);
  rec.ok = rec.ran ? (rec.ok && artifact.ok) : artifact.ok;
  rec.ran = true;
  return artifact;
}

}  // namespace lucid
