#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "obs/trace.hpp"
#include "support/chrono.hpp"
#include "support/strings.hpp"

namespace lucid {

namespace {

using Clock = SteadyClock;

/// The sweepable ResourceModel fields.
int* model_field(opt::ResourceModel& m, std::string_view name) {
  if (name == "stages") return &m.max_stages;
  if (name == "tables") return &m.tables_per_stage;
  if (name == "salus") return &m.salus_per_stage;
  if (name == "rules") return &m.rules_per_table;
  if (name == "members") return &m.members_per_table;
  if (name == "aluops") return &m.alu_ops_per_stage;
  return nullptr;
}

/// Runs Parse..Lower once for a sweep or fit and records the front end's
/// wall time and diagnostics in `report`.
template <typename Report>
CompilationPtr shared_front_end(std::string_view source,
                                const std::string& program_name,
                                BackendRegistry* registry, Report& report) {
  DriverOptions opts;
  opts.program_name = program_name;
  const CompilationPtr base =
      CompilerDriver(opts, registry).run(source, Stage::Lower);
  for (const Stage s : {Stage::Parse, Stage::Sema, Stage::Lower}) {
    const StageRecord& rec = base->record(s);
    if (!rec.ran) continue;
    report.frontend_wall_ms += rec.wall_ms;
    for (const Diagnostic& d : base->stage_diagnostics(s)) {
      report.frontend_diagnostics.push_back(d);
    }
  }
  return base;
}

}  // namespace

std::optional<std::vector<SweepVariant>> parse_sweep_grid(
    std::string_view spec, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };

  std::vector<SweepVariant> variants;
  variants.push_back(SweepVariant{"tofino", opt::ResourceModel::tofino()});
  const std::string trimmed{trim(spec)};
  if (trimmed.empty() || trimmed == "tofino") return variants;

  // Each ';'-separated dimension multiplies the variant set.
  std::set<std::string> seen_fields;
  for (const std::string& dim : split(trimmed, ';')) {
    const std::string d{trim(dim)};
    if (d.empty()) continue;
    const std::size_t eq = d.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= d.size()) {
      return fail("sweep dimension '" + d +
                  "' is not of the form field=v1,v2,...");
    }
    const std::string field = d.substr(0, eq);
    opt::ResourceModel probe;
    if (model_field(probe, field) == nullptr) {
      return fail("unknown sweep field '" + field +
                  "' (expected stages|tables|salus|rules|members|aluops)");
    }
    if (!seen_fields.insert(field).second) {
      return fail("sweep field '" + field +
                  "' appears more than once; list all its values in one "
                  "dimension");
    }
    std::vector<int> values;
    for (const std::string& v : split(d.substr(eq + 1), ',')) {
      const std::string vt{trim(v)};
      const std::optional<int> value = parse_positive_int(vt);
      if (!value) {
        return fail("sweep value '" + vt + "' for field '" + field +
                    "' is not a positive integer");
      }
      values.push_back(*value);
    }

    std::vector<SweepVariant> next;
    next.reserve(variants.size() * values.size());
    for (const SweepVariant& base : variants) {
      for (const int value : values) {
        SweepVariant v = base;
        *model_field(v.model, field) = value;
        const std::string term = field + "=" + std::to_string(value);
        v.label = (base.label == "tofino") ? term : base.label + "," + term;
        next.push_back(std::move(v));
      }
    }
    variants = std::move(next);
  }
  return variants;
}

std::optional<FitSpec> parse_fit_spec(std::string_view spec,
                                      std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<FitSpec> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };

  FitSpec out;
  out.base.push_back(SweepVariant{"tofino", opt::ResourceModel::tofino()});
  const std::string trimmed{trim(spec)};
  if (trimmed.empty()) {
    return fail("fit spec is empty (expected e.g. stages=1..20;salus=2,4)");
  }

  std::set<std::string> seen_fields;
  for (const std::string& dim : split(trimmed, ';')) {
    const std::string d{trim(dim)};
    if (d.empty()) continue;
    const std::size_t eq = d.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= d.size()) {
      return fail("fit dimension '" + d +
                  "' is not of the form field=MIN..MAX or field=v1,v2,...");
    }
    const std::string field = d.substr(0, eq);
    opt::ResourceModel probe;
    if (model_field(probe, field) == nullptr) {
      return fail("unknown fit field '" + field +
                  "' (expected stages|tables|salus|rules|members|aluops)");
    }
    if (!seen_fields.insert(field).second) {
      return fail("fit field '" + field + "' appears more than once");
    }
    const std::string value = d.substr(eq + 1);
    const std::size_t dots = value.find("..");
    if (dots != std::string::npos) {
      if (!out.search_field.empty()) {
        return fail("fit spec has more than one MIN..MAX range dimension ('" +
                    out.search_field + "' and '" + field +
                    "'); bisect one field at a time");
      }
      const auto lo = parse_positive_int(trim(value.substr(0, dots)));
      const auto hi = parse_positive_int(trim(value.substr(dots + 2)));
      if (!lo || !hi) {
        return fail("fit range '" + value + "' for field '" + field +
                    "' is not MIN..MAX over positive integers");
      }
      if (*lo > *hi) {
        return fail("fit range for field '" + field + "' is empty (" +
                    std::to_string(*lo) + " > " + std::to_string(*hi) + ")");
      }
      out.search_field = field;
      out.lo = *lo;
      out.hi = *hi;
      continue;
    }
    // Enumerated dimension: multiplies the row set, exactly like a sweep.
    std::vector<int> values;
    for (const std::string& v : split(value, ',')) {
      const std::string vt{trim(v)};
      const std::optional<int> parsed = parse_positive_int(vt);
      if (!parsed) {
        return fail("fit value '" + vt + "' for field '" + field +
                    "' is not a positive integer");
      }
      values.push_back(*parsed);
    }
    std::vector<SweepVariant> next;
    next.reserve(out.base.size() * values.size());
    for (const SweepVariant& base : out.base) {
      for (const int v : values) {
        SweepVariant row = base;
        *model_field(row.model, field) = v;
        const std::string term = field + "=" + std::to_string(v);
        row.label = (base.label == "tofino") ? term : base.label + "," + term;
        next.push_back(std::move(row));
      }
    }
    out.base = std::move(next);
  }
  if (out.search_field.empty()) {
    return fail("fit spec needs exactly one field=MIN..MAX range dimension "
                "(the field to bisect)");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

std::string SweepReport::str() const {
  std::ostringstream os;
  os << "=== sweep: " << program_name << " (" << variants.size()
     << " variants) ===\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "front end: 1 run (%.3f ms), shared by %zu variant%s\n",
                frontend_wall_ms, variants.size(),
                variants.size() == 1 ? "" : "s");
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "layout analysis: %.3f ms (computed once, shared by every "
                "variant)\n",
                analysis_wall_ms);
  os << buf;
  if (!frontend_diagnostics.empty()) {
    os << "front-end diagnostics:\n";
    for (const Diagnostic& d : frontend_diagnostics) {
      os << "  " << d.str() << "\n";
    }
  }
  if (variants.empty()) {
    std::snprintf(buf, sizeof(buf), "total wall: %.3f ms%s\n", total_wall_ms,
                  ok ? "" : "  (FAILURES)");
    os << buf;
    return os.str();
  }

  std::size_t label_w = 7;
  for (const auto& v : variants) {
    label_w = std::max(label_w, v.variant.label.size());
  }
  std::snprintf(buf, sizeof(buf), "%-*s %7s %5s", static_cast<int>(label_w),
                "variant", "stages", "fits");
  os << buf;
  if (!variants.empty()) {
    for (const auto& e : variants.front().emissions) {
      std::snprintf(buf, sizeof(buf), " %14s", e.backend.c_str());
      os << buf;
    }
  }
  os << "   wall ms\n";

  for (const auto& v : variants) {
    std::snprintf(buf, sizeof(buf), "%-*s %7d %5s",
                  static_cast<int>(label_w), v.variant.label.c_str(),
                  v.stats.optimized_stages, v.stats.fits ? "yes" : "NO");
    os << buf;
    for (const auto& e : v.emissions) {
      std::string cell = e.ok ? "ok" : "FAILED";
      if (e.from_cache) cell += "*";
      std::snprintf(buf, sizeof(buf), " %8s(%4.1f)", cell.c_str(), e.wall_ms);
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), " %9.3f\n", v.wall_ms);
    os << buf;
    for (const Diagnostic& d : v.diagnostics) {
      if (d.severity == Severity::Error) os << "    " << d.str() << "\n";
    }
    for (const auto& e : v.emissions) {
      for (const Diagnostic& d : e.diagnostics) {
        if (d.severity == Severity::Error) os << "    " << d.str() << "\n";
      }
    }
  }
  std::snprintf(buf, sizeof(buf), "total wall: %.3f ms%s\n", total_wall_ms,
                ok ? "" : "  (FAILURES)");
  os << buf;
  bool any_cached = false;
  for (const auto& v : variants) {
    for (const auto& e : v.emissions) any_cached |= e.from_cache;
  }
  if (any_cached) os << "(* = emission served from the artifact cache)\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SweepEngine::SweepEngine(BackendRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &BackendRegistry::global()) {}

SweepReport SweepEngine::run(std::string_view source,
                             const SweepOptions& options) const {
  const auto sweep_t0 = Clock::now();

  SweepReport report;
  report.program_name = options.program_name;

  std::vector<SweepVariant> variants = options.variants;
  if (variants.empty()) {
    variants.push_back(SweepVariant{"tofino", opt::ResourceModel::tofino()});
  }

  // ---- Phase 1: one front end, shared by every variant -------------------
  const CompilationPtr base =
      shared_front_end(source, options.program_name, registry_, report);
  if (!base->succeeded(Stage::Lower)) {
    report.ok = false;
    report.total_wall_ms = ms_since(sweep_t0);
    return report;
  }

  // The model-independent layout analysis (Phase A) is paid here, exactly
  // once: every variant clone resolves to this same artifact, so none of the
  // Layout runs below recompute it.
  {
    const auto t0 = Clock::now();
    (void)base->layout_analysis_ptr();
    report.analysis_wall_ms = ms_since(t0);
  }

  // ---- Phase 2: per-variant layout on front-end clones --------------------
  report.variants.resize(variants.size());
  std::vector<CompilationPtr> compiled(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    obs::ScopedSpan span("sweep", "variant_layout");
    span.arg("variant", variants[i].label);
    const auto t0 = Clock::now();
    SweepVariantReport& vr = report.variants[i];
    vr.variant = variants[i];

    DriverOptions vopts;
    vopts.model = variants[i].model;
    vopts.program_name = options.program_name;
    CompilationPtr comp = base->clone_from_stage(Stage::Lower, vopts);
    const CompilerDriver vdriver(vopts, registry_);
    vdriver.run_until(comp, Stage::Layout);

    vr.ok = comp->succeeded(Stage::Layout);
    if (vr.ok) vr.stats = comp->layout_stats();
    for (const Diagnostic& d : comp->stage_diagnostics(Stage::Layout)) {
      vr.diagnostics.push_back(d);
    }
    vr.wall_ms = ms_since(t0);
    compiled[i] = std::move(comp);
  }

  // ---- Phase 3: per-(variant, backend) emission clones --------------------
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SweepVariantReport& vr = report.variants[i];
    vr.emissions.resize(options.backends.size());
    for (std::size_t b = 0; b < options.backends.size(); ++b) {
      // Every slot is named so report columns stay labelled even for
      // variants whose layout failed (their emissions stay ok == false).
      SweepEmission& em = vr.emissions[b];
      em.backend = options.backends[b];
      if (!vr.ok) continue;  // layout failed: nothing to emit

      obs::ScopedSpan span("sweep", "emit");
      span.arg("backend", em.backend);
      const auto t0 = Clock::now();
      const CompilationPtr& comp = compiled[i];
      if (options.cache != nullptr) {
        if (auto cached = options.cache->load_artifact(*comp, em.backend)) {
          em.ok = cached->ok;
          em.from_cache = true;
          em.text = std::move(cached->text);
          em.metrics = std::move(cached->metrics);
          em.wall_ms = ms_since(t0);
          continue;
        }
      }

      // Every emission runs on its own clone of the variant's compilation,
      // so backends never share a DiagnosticEngine or Emit record.
      CompilationPtr eclone = comp->clone_from_stage(Stage::Layout);
      const CompilerDriver edriver(comp->options(), registry_);
      BackendArtifact artifact = edriver.emit(eclone, em.backend);
      if (options.cache != nullptr && artifact.ok) {
        // Store before the fields move into the report (no artifact copy).
        // The emitting clone holds the emission's diagnostics too.
        options.cache->store_artifact(*eclone, artifact);
      }
      em.ok = artifact.ok;
      em.text = std::move(artifact.text);
      em.metrics = std::move(artifact.metrics);
      em.diagnostics = eclone->stage_diagnostics(Stage::Emit);
      em.wall_ms = ms_since(t0);
    }
  }

  // ---- Aggregate ----------------------------------------------------------
  report.ok = true;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SweepVariantReport& vr = report.variants[i];
    if (compiled[i] != nullptr) vr.records = compiled[i]->records();
    double emit_ms = 0.0;
    for (const SweepEmission& e : vr.emissions) {
      if (!e.ok) vr.ok = false;
      emit_ms += e.wall_ms;
    }
    vr.wall_ms += emit_ms;
    if (!vr.ok) report.ok = false;
  }
  report.total_wall_ms = ms_since(sweep_t0);
  return report;
}

// ---------------------------------------------------------------------------
// Auto-fitting
// ---------------------------------------------------------------------------

std::string FitReport::str() const {
  std::ostringstream os;
  os << "=== fit: " << program_name << " (smallest " << search_field
     << " in [" << lo << ".." << hi << "], " << rows.size() << " row"
     << (rows.size() == 1 ? "" : "s") << ") ===\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "front end: 1 run (%.3f ms)\n",
                frontend_wall_ms);
  os << buf;
  if (!frontend_diagnostics.empty()) {
    os << "front-end diagnostics:\n";
    for (const Diagnostic& d : frontend_diagnostics) {
      os << "  " << d.str() << "\n";
    }
  }
  if (!rows.empty()) {
    std::size_t label_w = 7;
    for (const auto& r : rows) label_w = std::max(label_w, r.label.size());
    std::snprintf(buf, sizeof(buf), "%-*s %12s %7s  %s\n",
                  static_cast<int>(label_w), "variant",
                  ("min " + search_field).c_str(), "probes", "probed values");
    os << buf;
    for (const FitRow& r : rows) {
      std::string fitted = !r.layout_ok ? "ERROR"
                           : r.fitted < 0 ? "none"
                                          : std::to_string(r.fitted);
      std::string probed;
      for (const int v : r.probed) {
        if (!probed.empty()) probed += ",";
        probed += std::to_string(v);
      }
      std::snprintf(buf, sizeof(buf), "%-*s %12s %7zu  %s\n",
                    static_cast<int>(label_w), r.label.c_str(),
                    fitted.c_str(), r.probed.size(), probed.c_str());
      os << buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "total wall: %.3f ms%s\n", total_wall_ms,
                !ok          ? "  (FAILURES)"
                : !all_fit   ? "  (some rows do not fit in range)"
                             : "");
  os << buf;
  return os.str();
}

FitReport SweepEngine::fit(std::string_view source,
                           const FitOptions& options) const {
  const auto fit_t0 = Clock::now();

  FitReport report;
  report.program_name = options.program_name;
  report.search_field = options.spec.search_field;
  report.lo = options.spec.lo;
  report.hi = options.spec.hi;

  // One front end for every row and probe, exactly as in run().
  const CompilationPtr base =
      shared_front_end(source, options.program_name, registry_, report);
  if (!base->succeeded(Stage::Lower)) {
    report.ok = false;
    report.total_wall_ms = ms_since(fit_t0);
    return report;
  }
  // Phase A paid once; every probe's Layout shares it.
  (void)base->layout_analysis_ptr();

  report.rows.resize(options.spec.base.size());
  report.ok = true;
  for (std::size_t i = 0; i < options.spec.base.size(); ++i) {
    const SweepVariant& v = options.spec.base[i];
    FitRow& row = report.rows[i];
    row.label = v.label;
    row.model = v.model;
    *model_field(row.model, options.spec.search_field) = options.spec.hi;

    // One probe: lay the program out with the search field at `value`.
    // 1 = fits, 0 = does not fit, -1 = layout error (not a fit verdict).
    const auto probe = [&](int value) -> int {
      opt::ResourceModel m = v.model;
      *model_field(m, options.spec.search_field) = value;
      DriverOptions vopts;
      vopts.model = m;
      vopts.program_name = options.program_name;
      CompilationPtr clone = base->clone_from_stage(Stage::Lower, vopts);
      if (clone == nullptr) return -1;
      CompilerDriver(vopts, registry_).run_until(clone, Stage::Layout);
      row.probed.push_back(value);
      if (!clone->succeeded(Stage::Layout)) return -1;
      return clone->layout_stats().fits ? 1 : 0;
    };

    // Every sweepable field is monotone (more resources never un-fits), so
    // first decide whether the range contains a fit at all, then bisect.
    const int at_hi = probe(options.spec.hi);
    if (at_hi < 0) {
      row.layout_ok = false;
      report.ok = false;
      continue;
    }
    if (at_hi == 0) continue;  // fitted stays -1: nothing in range fits
    int lo = options.spec.lo;
    int hi = options.spec.hi;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      const int r = probe(mid);
      if (r < 0) {
        row.layout_ok = false;
        report.ok = false;
        break;
      }
      if (r == 1) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (!row.layout_ok) continue;
    row.fitted = lo;
    *model_field(row.model, options.spec.search_field) = lo;
  }

  report.all_fit = report.ok;
  for (const FitRow& r : report.rows) {
    if (r.fitted < 0) report.all_fit = false;
  }
  report.total_wall_ms = ms_since(fit_t0);
  return report;
}

}  // namespace lucid
