// SweepEngine: resource-model sweeps as a service.
//
// A sweep compiles one Lucid program against a grid of resource models and
// emits every requested backend for every variant — the workflow behind
// "which Tofino generation / stage budget does my program still fit?". The
// engine pays for the front end exactly once: Parse, Sema, and Lower run a
// single time, every variant is a Compilation::clone_from_stage of that
// shared front end, and every (variant, backend) emission runs on its own
// Layout-level clone (or comes out of an ArtifactCache), so no variant or
// emission mutates another's state.
//
// Grid specs (the CLI's --sweep=<grid-spec>) are cross products over
// resource-model fields:
//
//   stages=8,12;salus=2,4     -> 4 variants
//   tables=4                  -> 1 variant
//   (empty)                   -> 1 variant (the stock Tofino model)
//
// Recognized fields: stages, tables, salus, rules, members, aluops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache.hpp"
#include "core/driver.hpp"
#include "opt/passes.hpp"

namespace lucid {

/// One point of the sweep grid.
struct SweepVariant {
  std::string label;  // e.g. "stages=8,salus=2" or "tofino"
  opt::ResourceModel model = opt::ResourceModel::tofino();
};

/// Parses a grid spec into the cross product of its dimensions (see the file
/// header for the format). Returns nullopt and sets `*error` on a malformed
/// spec. An empty spec yields the single default Tofino variant.
[[nodiscard]] std::optional<std::vector<SweepVariant>> parse_sweep_grid(
    std::string_view spec, std::string* error = nullptr);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One backend emission of one variant.
struct SweepEmission {
  std::string backend;
  bool ok = false;
  bool from_cache = false;  // served from the ArtifactCache
  std::string text;
  std::map<std::string, std::int64_t> metrics;
  double wall_ms = 0.0;
  std::vector<Diagnostic> diagnostics;  // emit-stage diagnostics only
};

/// Everything the sweep learned about one variant.
struct SweepVariantReport {
  SweepVariant variant;
  bool ok = false;                   // layout and every emission succeeded
  std::vector<StageRecord> records;  // stage records of this variant's
                                     // compilation (front end marked shared)
  opt::LayoutStats stats;
  std::vector<Diagnostic> diagnostics;  // middle-end diagnostics
  std::vector<SweepEmission> emissions;
  double wall_ms = 0.0;  // layout + this variant's emissions
};

struct SweepReport {
  std::string program_name;
  bool ok = false;
  double frontend_wall_ms = 0.0;  // Parse+Sema+Lower cost (paid once)
  /// Wall-clock of the model-independent layout analysis (opt::
  /// LayoutAnalysis, Phase A), computed once and shared by every
  /// variant's Layout run — their StageRecords carry analysis_shared as
  /// proof.
  double analysis_wall_ms = 0.0;
  double total_wall_ms = 0.0;     // wall clock of the whole sweep
  std::vector<Diagnostic> frontend_diagnostics;
  std::vector<SweepVariantReport> variants;

  /// Human-readable table (one row per variant).
  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct SweepOptions {
  std::vector<SweepVariant> variants;  // empty -> single Tofino variant
  std::vector<std::string> backends = {"p4", "ebpf", "interp"};
  std::string program_name = "program";
  /// Optional cache: emissions are served from and stored to it.
  const ArtifactCache* cache = nullptr;
};

// ---------------------------------------------------------------------------
// Auto-fitting (the CLI's --fit=<fit-spec>)
// ---------------------------------------------------------------------------

/// A fit spec is a sweep grid where exactly one dimension is a *range*
/// (`field=MIN..MAX`) instead of an enumeration: for every point of the
/// enumerated cross product, the engine binary-searches the smallest value
/// of the range field under which the program still fits. Every sweepable
/// ResourceModel field is monotone (more resources never un-fits a
/// program), which is what makes bisection sound.
///
///   stages=1..20              -> 1 row, search stages in [1, 20]
///   stages=1..20;salus=2,4    -> 2 rows (salus=2 and salus=4), same search
struct FitSpec {
  std::string search_field;            // stages|tables|salus|rules|members|aluops
  int lo = 0;
  int hi = 0;
  std::vector<SweepVariant> base;      // enumerated cross product (>= 1 row)
};

/// Parses a fit spec (see FitSpec). Returns nullopt and sets `*error` on a
/// malformed spec, an unknown field, a repeated field, or a spec without
/// exactly one MIN..MAX range dimension.
[[nodiscard]] std::optional<FitSpec> parse_fit_spec(
    std::string_view spec, std::string* error = nullptr);

/// One enumerated grid point's bisection result.
struct FitRow {
  std::string label;              // base variant label ("tofino", "salus=2")
  opt::ResourceModel model;       // base model with search_field = fitted
                                  // (or = hi when nothing fits)
  int fitted = -1;                // smallest fitting value; -1 = none in range
  std::vector<int> probed;        // values probed, in probe order
  bool layout_ok = true;          // false when a probe's Layout errored
};

struct FitReport {
  std::string program_name;
  std::string search_field;
  int lo = 0;
  int hi = 0;
  bool ok = false;       // front end and every probe's layout succeeded
  bool all_fit = false;  // every row found a fitting value in [lo, hi]
  double frontend_wall_ms = 0.0;
  double total_wall_ms = 0.0;
  std::vector<Diagnostic> frontend_diagnostics;
  std::vector<FitRow> rows;

  /// Human-readable table (one row per enumerated grid point).
  [[nodiscard]] std::string str() const;
};

struct FitOptions {
  FitSpec spec;
  std::string program_name = "program";
};

class SweepEngine {
 public:
  /// `registry` defaults to the process-wide backend registry. Register all
  /// backends before running a sweep — registration is not thread-safe.
  explicit SweepEngine(BackendRegistry* registry = nullptr);

  [[nodiscard]] SweepReport run(std::string_view source,
                                const SweepOptions& options) const;

  /// Sweep-driven auto-fitting: pays for the front end (and the shared
  /// layout analysis) once, then bisects the spec's range field per
  /// enumerated row on Lower-level clones — ~log2(hi-lo) Layout runs per
  /// row instead of a full-grid sweep.
  [[nodiscard]] FitReport fit(std::string_view source,
                              const FitOptions& options) const;

 private:
  BackendRegistry* registry_;
};

}  // namespace lucid
