// Front-end benchmark: what each reuse path of the compiler buys over doing
// the work cold, and proof that it changes nothing. One run, one
// BENCH_frontend.json:
//
//   top level    a generated 512-decl program (frontend::generate_program)
//                parse    cold Parse vs the incremental parse of a
//                         one-handler edit              — target >= 5x
//                         (Sema and Lower reuse of that edit are written
//                         as sema/lower_decls_reused)
//                phase A  cold opt::analyze_layout vs
//                         opt::update_layout_analysis with one dirty
//                         handler                       — target >= 3x
//                phase B  opt::layout of the program at the default
//                         model, from its analysis, and its restart
//                         count                         — measured
//   layout       the ten paper apps against an 8-variant grid: opt::layout
//                per variant (cold) vs one opt::analyze_layout plus eight
//                index-based merges (shared)    — target >= 2x
//   sweep        the same grid, three backends: eight cold driver runs vs
//                SweepEngine (serial) and SweepEngine over a warm on-disk
//                ArtifactCache in a private temp directory, the path of
//                `lucidc --sweep --cache-dir` (cached) — measured
//   incremental  the ten apps: cold compile vs CompilerDriver::recompile of
//                a formatting-only edit (hit)   — target >= 2x
//                and of a one-handler edit (edit), whose Sema+Lower stage
//                wall is compared to cold       — target >= 1.2x
//
// Every reuse path must match its cold path: shared layout's
// Pipeline::str() on every variant; the hit and edit recompiles' p4 + ebpf
// text, IR, pipeline and diagnostics on every app; the 512-decl edit's IR,
// pipeline and diagnostics; every sweep's SweepReport::ok; and every
// emission of a warm-cache sweep coming from the cache. A divergence exits 1
// at once. A missed target exits 1 after the JSON is written.
//
// Each measurement alternates its cold and reuse runs in rounds
// (interleaved_ms), so a slow spell on a shared host lands on both sides of
// a ratio instead of one.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/backends.hpp"
#include "core/cache.hpp"
#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "frontend/progen.hpp"
#include "opt/passes.hpp"
#include "support/chrono.hpp"

namespace {

using namespace lucid;
using bench::JsonWriter;
using bench::print_header;
using bench::print_rule;

const char* kGrid = "stages=4,8,12,16;salus=2,4";
const std::vector<std::string> kBackends = {"p4", "ebpf", "interp"};
constexpr int kParseReps = 20;
constexpr int kPhaseAReps = 10;
constexpr int kPhaseBReps = 10;
constexpr int kLayoutReps = 40;
constexpr int kSweepReps = 3;
constexpr int kIncrementalReps = 30;
constexpr int kRounds = 3;

[[noreturn]] void fatal(const std::string& what) {
  std::fprintf(stderr, "FATAL: %s\n", what.c_str());
  std::exit(1);
}

/// Runs each callable `reps` times and returns each one's summed wall time.
/// The reps are split over kRounds rounds; a round runs each callable once
/// untimed and then its share of the reps back to back. A slow spell on a
/// shared host so lands on every side of a ratio, and every timed rep finds
/// the caches warm from its own callable. Callables get `timed` so that a
/// figure they record themselves (a stage's wall time) skips the warm-up.
template <typename... Fn>
std::array<double, sizeof...(Fn)> interleaved_ms(int reps, Fn&&... fns) {
  std::array<double, sizeof...(Fn)> ms{};
  for (int round = 0; round < kRounds; ++round) {
    const int n = reps / kRounds + (round < reps % kRounds ? 1 : 0);
    std::size_t i = 0;
    const auto time_block = [&](auto& fn) {
      fn(false);
      const auto t0 = SteadyClock::now();
      for (int k = 0; k < n; ++k) fn(true);
      ms[i++] += ms_since(t0);
    };
    (time_block(fns), ...);
  }
  return ms;
}

double ratio(double cold, double reuse) { return reuse > 0 ? cold / reuse : 0; }

/// Prints the outcome of one target and returns whether it was met.
bool meets(const char* what, double speedup, double target) {
  const bool ok = speedup >= target;
  std::printf("%s %s: %.2fx (target: %.1fx)\n", ok ? "ok  " : "FAIL", what,
              speedup, target);
  return ok;
}

/// Aborts unless recompile(prev, source) matches a cold compile of `source`
/// on the lowered IR, the laid-out pipeline and the rendered diagnostics,
/// and, when `emit` is set, on the p4 + ebpf text. (The 512-decl program
/// fits no 12-stage model, so it has no artifacts; the tests pin those on
/// small generated programs.)
void check_identical(const CompilerDriver& driver, const CompilationPtr& prev,
                     const std::string& source, const std::string& what,
                     bool emit) {
  const CompilationPtr cold = driver.run(source, Stage::Layout);
  CompilationPtr rec = driver.recompile(prev, source);
  driver.run_until(rec, Stage::Layout);
  if (!cold->ok() || !rec->ok()) fatal(what + ": compile failed");
  std::string cold_ir, rec_ir;
  for (const auto& h : cold->ir().handlers) cold_ir += h.str();
  for (const auto& h : rec->ir().handlers) rec_ir += h.str();
  if (cold_ir != rec_ir || cold->pipeline().str() != rec->pipeline().str() ||
      cold->diags().render() != rec->diags().render()) {
    fatal(what + ": incremental IR/pipeline/diagnostics diverged from cold");
  }
  if (!emit) return;
  for (const char* backend : {"p4", "ebpf"}) {
    const BackendArtifact a = driver.emit(cold, backend);
    const BackendArtifact b = driver.emit(rec, backend);
    if (!a.ok || !b.ok || a.text != b.text) {
      fatal(what + "/" + backend + ": incremental output diverged from cold");
    }
  }
}

// ---- top level: the 512-decl program ---------------------------------------

struct ScaleResults {
  int decls = 0;
  int handlers = 0;
  double parse_cold_ms = 0;
  double parse_edit_ms = 0;
  long parse_reused = 0;
  long sema_reused = 0;   // decls Sema reused on the one-handler edit
  long lower_reused = 0;  // handlers Lower spliced on that edit
  double phasea_cold_ms = 0;
  double phasea_inc_ms = 0;
  long handlers_reused = 0;
  double phaseb_ms = 0;  // one cold opt::layout, mean over kPhaseBReps
  int phaseb_restarts = 0;
};

ScaleResults measure_scale() {
  frontend::ProgenConfig cfg;
  cfg.handlers = 240;  // 512 decls total with the default satellite counts
  cfg.stmts_per_handler = 28;
  const std::string source = frontend::generate_program(cfg);
  const std::string edit_src = frontend::edit_one_handler(source, 0);
  ScaleResults r;
  r.decls = cfg.decl_count();
  r.handlers = cfg.handlers;

  DriverOptions opts;
  opts.program_name = "progen";
  const CompilerDriver driver(opts);
  const CompilationPtr prev = driver.run(source, Stage::Layout);
  if (!prev->ok()) {
    fatal("generated program does not compile:\n" + prev->diags().render());
  }
  check_identical(driver, prev, edit_src, "progen/edit", false);

  // Parse: cold vs incremental, one decl edited.
  const auto parse_cold = [&](bool) {
    if (!driver.run(edit_src, Stage::Parse)->ok()) fatal("progen parse");
  };
  const auto parse_edit = [&](bool) {
    const CompilationPtr c = driver.recompile(prev, edit_src, Stage::Parse);
    if (!c->ok()) fatal("progen incremental parse");
    r.parse_reused = c->record(Stage::Parse).decls_reused;
  };
  const auto parse = interleaved_ms(kParseReps, parse_cold, parse_edit);
  r.parse_cold_ms = parse[0];
  r.parse_edit_ms = parse[1];

  // Phase A: cold analysis vs a patch with exactly the edited handler dirty.
  const CompilationPtr rec = driver.recompile(prev, edit_src);
  if (!rec->ok()) fatal("progen recompile");
  r.sema_reused = rec->record(Stage::Sema).decls_reused;
  r.lower_reused = rec->record(Stage::Lower).decls_reused;
  const auto prev_an = prev->layout_analysis_ptr();
  const std::set<std::string> dirty = {"ev0"};
  int reused = 0;
  const auto phasea = interleaved_ms(
      kPhaseAReps,
      [&](bool) {
        if (opt::analyze_layout(rec->ir()) == nullptr) fatal("phase A");
      },
      [&](bool) {
        if (opt::update_layout_analysis(*prev_an, rec->ir(), dirty, 64,
                                        &reused) == nullptr) {
          fatal("analysis patch unexpectedly fell back");
        }
      });
  r.phasea_cold_ms = phasea[0];
  r.phasea_inc_ms = phasea[1];
  r.handlers_reused = reused;

  // Phase B alone: the greedy merger over the unedited program's 8,100
  // items, restarts and all.
  const auto analysis = prev->layout_analysis_ptr();
  const auto phaseb = interleaved_ms(kPhaseBReps, [&](bool) {
    DiagnosticEngine diags;
    r.phaseb_restarts =
        opt::layout(analysis, opts.model, diags).restarts;
  });
  r.phaseb_ms = phaseb[0] / kPhaseBReps;
  return r;
}

// ---- layout: cold vs shared analysis ---------------------------------------

struct LayoutRow {
  std::string key;
  double cold_ms = 0;    // kLayoutReps x (8 variants x full layout)
  double shared_ms = 0;  // kLayoutReps x (1 analysis + 8 merges)
  double driver_layout_ms = 0;  // one cold driver compile's Layout record
  long restarts = 0;            // summed over the 8 variants (one pass)
  void add(const LayoutRow& o) {
    cold_ms += o.cold_ms;
    shared_ms += o.shared_ms;
    driver_layout_ms += o.driver_layout_ms;
    restarts += o.restarts;
  }
  void write(JsonWriter& j, const std::string& name = {}) const {
    j.obj_open(name)
        .field("app", key)
        .field("cold_ms", cold_ms)
        .field("shared_ms", shared_ms)
        .field("driver_layout_ms", driver_layout_ms)
        .field("restarts", restarts)
        .field("speedup", ratio(cold_ms, shared_ms))
        .obj_close();
  }
};

LayoutRow measure_layout(const apps::AppSpec& spec,
                         const std::vector<SweepVariant>& variants) {
  LayoutRow r;
  r.key = spec.key;
  const CompilationPtr comp = bench::compile_app(spec);
  r.driver_layout_ms = comp->record(Stage::Layout).wall_ms;
  const ir::ProgramIR& ir = comp->ir();

  const auto analysis = opt::analyze_layout(ir);
  for (const SweepVariant& v : variants) {
    DiagnosticEngine d1;
    DiagnosticEngine d2;
    const opt::Pipeline cold = opt::layout(ir, v.model, d1);
    const opt::Pipeline shared = opt::layout(analysis, v.model, d2);
    if (cold.str() != shared.str()) {
      fatal(spec.key + "/" + v.label +
            ": shared-analysis layout diverged from cold");
    }
    r.restarts += shared.restarts;
  }

  const auto ms = interleaved_ms(
      kLayoutReps,
      [&](bool) {
        for (const SweepVariant& v : variants) {
          DiagnosticEngine diags;
          const opt::Pipeline p = opt::layout(ir, v.model, diags);
          if (!p.feasible && p.stage_count() == 0) std::exit(1);  // keep p
        }
      },
      [&](bool) {
        const auto an = opt::analyze_layout(ir);  // once per sweep
        for (const SweepVariant& v : variants) {
          DiagnosticEngine diags;
          const opt::Pipeline p = opt::layout(an, v.model, diags);
          if (!p.feasible && p.stage_count() == 0) std::exit(1);
        }
      });
  r.cold_ms = ms[0];
  r.shared_ms = ms[1];
  return r;
}

// ---- sweep: cold compiles vs SweepEngine -----------------------------------

struct SweepRow {
  std::string key;
  double cold_ms = 0;    // kSweepReps x 8 driver runs + 3 emissions each
  double serial_ms = 0;  // kSweepReps x SweepEngine
  double cached_ms = 0;  // kSweepReps x SweepEngine over a warm disk cache
  std::map<std::string, double> serial_emit_ms;  // per backend
  std::map<std::string, double> cached_emit_ms;  // per backend
  void add(const SweepRow& o) {
    cold_ms += o.cold_ms;
    serial_ms += o.serial_ms;
    cached_ms += o.cached_ms;
    for (const auto& [b, ms] : o.serial_emit_ms) serial_emit_ms[b] += ms;
    for (const auto& [b, ms] : o.cached_emit_ms) cached_emit_ms[b] += ms;
  }
  void write(JsonWriter& j, const std::string& name = {}) const {
    j.obj_open(name)
        .field("app", key)
        .field("cold_ms", cold_ms)
        .field("serial_ms", serial_ms)
        .field("cached_ms", cached_ms);
    const auto by_backend = [&j](const char* field,
                                 const std::map<std::string, double>& m) {
      j.obj_open(field);
      for (const auto& [b, ms] : m) j.field(b, ms);
      j.obj_close();
    };
    by_backend("serial_emit_ms", serial_emit_ms);
    by_backend("cached_emit_ms", cached_emit_ms);
    j.obj_close();
  }
};

void run_sweep(const apps::AppSpec& spec,
               const std::vector<SweepVariant>& variants,
               const ArtifactCache* cache,
               std::map<std::string, double>* emit_ms = nullptr) {
  SweepOptions opts;
  opts.variants = variants;
  opts.backends = kBackends;
  opts.program_name = spec.key;
  opts.cache = cache;
  const SweepReport report = SweepEngine().run(spec.source, opts);
  if (!report.ok) fatal("sweep over " + spec.key + " failed:\n" + report.str());
  if (emit_ms == nullptr) return;
  for (const SweepVariantReport& vr : report.variants) {
    for (const SweepEmission& e : vr.emissions) {
      if (cache != nullptr && !e.from_cache) {
        fatal(spec.key + "/" + vr.variant.label + "/" + e.backend +
              ": warm-cache sweep emission was not served from the cache");
      }
      (*emit_ms)[e.backend] += e.wall_ms;
    }
  }
}

SweepRow measure_sweep(const apps::AppSpec& spec,
                       const std::vector<SweepVariant>& variants,
                       const ArtifactCache& cache) {
  SweepRow r;
  r.key = spec.key;
  const auto ms = interleaved_ms(
      kSweepReps,
      [&](bool) {
        for (const SweepVariant& v : variants) {
          DriverOptions opts;
          opts.model = v.model;
          opts.program_name = spec.key;
          const CompilerDriver driver(opts);
          const CompilationPtr comp = driver.run(spec.source);
          if (!comp->ok()) fatal(spec.key + "/" + v.label + " failed");
          for (const std::string& b : kBackends) {
            if (!driver.emit(comp, b).ok) {
              fatal(spec.key + "/" + v.label + " emit " + b + " failed");
            }
          }
        }
      },
      [&](bool timed) {
        run_sweep(spec, variants, nullptr,
                  timed ? &r.serial_emit_ms : nullptr);
      },
      [&](bool timed) {  // the untimed first run warms the cache
        run_sweep(spec, variants, &cache, timed ? &r.cached_emit_ms : nullptr);
      });
  r.cold_ms = ms[0];
  r.serial_ms = ms[1];
  r.cached_ms = ms[2];
  return r;
}

// ---- incremental: cold vs hit vs edit --------------------------------------

struct IncrementalRow {
  std::string key;
  double cold_ms = 0;  // kIncrementalReps x cold compile of the edited source
  double hit_ms = 0;   // ... x recompile of a formatting-only variant
  double edit_ms = 0;  // ... x recompile of a one-handler edit
  // Sema+Lower stage wall summed over the reps: the per-decl reuse the edit
  // path buys on the (small) paper apps. Parse and Phase A reuse are
  // measured at scale at the top level.
  double cold_sl_ms = 0;
  double edit_sl_ms = 0;
  long sema_reused = 0;    // decls reused by Sema on the edit path
  long lower_spliced = 0;  // handler graphs spliced by Lower
  void add(const IncrementalRow& o) {
    cold_ms += o.cold_ms;
    hit_ms += o.hit_ms;
    edit_ms += o.edit_ms;
    cold_sl_ms += o.cold_sl_ms;
    edit_sl_ms += o.edit_sl_ms;
    sema_reused += o.sema_reused;
    lower_spliced += o.lower_spliced;
  }
  void write(JsonWriter& j, const std::string& name = {}) const {
    j.obj_open(name)
        .field("app", key)
        .field("cold_ms", cold_ms)
        .field("hit_ms", hit_ms)
        .field("edit_ms", edit_ms)
        .field("cold_sema_lower_ms", cold_sl_ms)
        .field("edit_sema_lower_ms", edit_sl_ms)
        .field("sema_reused", sema_reused)
        .field("lower_spliced", lower_spliced)
        .field("hit_speedup", ratio(cold_ms, hit_ms))
        .field("edit_speedup", ratio(cold_ms, edit_ms))
        .obj_close();
  }
};

std::string edit_first_handler(const std::string& source) {
  const std::size_t h = source.find("handle ");
  const std::size_t brace =
      h == std::string::npos ? std::string::npos : source.find('{', h);
  if (brace == std::string::npos) fatal("no handler to edit");
  std::string out = source;
  out.insert(brace + 1, " int __bench_edit = 1 + 2; ");
  return out;
}

IncrementalRow measure_incremental(const apps::AppSpec& spec) {
  IncrementalRow r;
  r.key = spec.key;
  DriverOptions opts;
  opts.program_name = spec.key;
  const CompilerDriver driver(opts);
  const std::string hit_src = "// reformatted\n/* block comment */\n" +
                              spec.source + "\n// trailing comment\n";
  const std::string edit_src = edit_first_handler(spec.source);
  const CompilationPtr prev = driver.run(spec.source, Stage::Layout);
  if (!prev->ok()) fatal(spec.key + " does not compile");
  check_identical(driver, prev, hit_src, spec.key + "/hit", true);
  check_identical(driver, prev, edit_src, spec.key + "/edit", true);

  const auto recompile = [&](const std::string& src) {
    CompilationPtr c = driver.recompile(prev, src);
    driver.run_until(c, Stage::Layout);
    if (!c->ok()) fatal(spec.key + ": recompile failed");
    return c;
  };
  const auto sema_lower_ms = [](const CompilationPtr& c) {
    return c->record(Stage::Sema).wall_ms + c->record(Stage::Lower).wall_ms;
  };
  {
    const CompilationPtr c = recompile(edit_src);
    r.sema_reused = c->record(Stage::Sema).decls_reused;
    r.lower_spliced = c->record(Stage::Lower).decls_reused;
  }
  const auto ms = interleaved_ms(
      kIncrementalReps,
      [&](bool timed) {
        const CompilationPtr c = driver.run(edit_src, Stage::Layout);
        if (!c->ok()) fatal(spec.key + ": cold compile failed");
        if (timed) r.cold_sl_ms += sema_lower_ms(c);
      },
      [&](bool) { recompile(hit_src); },
      [&](bool timed) {
        const CompilationPtr c = recompile(edit_src);
        if (timed) r.edit_sl_ms += sema_lower_ms(c);
      });
  r.cold_ms = ms[0];
  r.hit_ms = ms[1];
  r.edit_ms = ms[2];
  return r;
}

/// Measures every app, printing a table row for each and for the totals,
/// and writes the section's `apps` and `totals`.
template <typename Row, typename Measure, typename Print>
Row per_app_section(JsonWriter& j, Measure measure, Print print) {
  Row totals;
  totals.key = "total";
  j.arr_open("apps");
  for (const apps::AppSpec& spec : apps::all_apps()) {
    const Row r = measure(spec);
    print(r);
    r.write(j);
    totals.add(r);
  }
  j.arr_close();
  print_rule();
  print(totals);
  totals.write(j, "totals");
  return totals;
}

}  // namespace

int main() {
  register_default_backends();
  const auto variants = *parse_sweep_grid(kGrid);
  JsonWriter j;
  j.obj_open().field("bench", "bench_frontend");

  print_header("bench_frontend",
               "front-end reuse vs cold work: 512-decl scale, layout, "
               "sweep, incremental");
  const ScaleResults s = measure_scale();
  const double parse_x = ratio(s.parse_cold_ms, s.parse_edit_ms);
  const double phasea_x = ratio(s.phasea_cold_ms, s.phasea_inc_ms);
  std::printf("%d decls (%d handlers), one-handler edit\n", s.decls,
              s.handlers);
  std::printf("%-24s %9.2f ms  (x%d reps)\n", "parse: cold",
              s.parse_cold_ms, kParseReps);
  std::printf("%-24s %9.2f ms  (%ld decls spliced)\n",
              "parse: one-decl edit", s.parse_edit_ms, s.parse_reused);
  std::printf("%-24s %ld decls, %ld handlers reused\n", "sema/lower: edit",
              s.sema_reused, s.lower_reused);
  std::printf("%-24s %9.2f ms  (x%d reps)\n", "phase A: cold",
              s.phasea_cold_ms, kPhaseAReps);
  std::printf("%-24s %9.2f ms  (%ld handlers reused)\n",
              "phase A: incremental", s.phasea_inc_ms, s.handlers_reused);
  std::printf("%-24s %9.2f ms  (per layout, %d restarts)\n",
              "phase B: cold", s.phaseb_ms, s.phaseb_restarts);
  j.field("decls", s.decls)
      .field("handlers", s.handlers)
      .field("parse_cold_ms", s.parse_cold_ms)
      .field("parse_edit_ms", s.parse_edit_ms)
      .field("parse_decls_reused", s.parse_reused)
      .field("parse_speedup", parse_x)
      .field("sema_decls_reused", s.sema_reused)
      .field("lower_decls_reused", s.lower_reused)
      .field("phasea_cold_ms", s.phasea_cold_ms)
      .field("phasea_incremental_ms", s.phasea_inc_ms)
      .field("phasea_handlers_reused", s.handlers_reused)
      .field("phasea_speedup", phasea_x)
      .field("phaseb_ms", s.phaseb_ms)
      .field("phaseb_restarts", s.phaseb_restarts);

  print_header("layout", "cold (analysis per variant) vs shared (analysis "
                         "once), " + std::to_string(kLayoutReps) +
                             " reps over " + kGrid);
  std::printf("%-8s %10s %10s %9s %9s   %s\n", "app", "cold ms", "shared ms",
              "restarts", "drv ms", "cold/shared");
  j.obj_open("layout")
      .field("grid", kGrid)
      .field("variants", variants.size())
      .field("reps", kLayoutReps);
  const LayoutRow layout = per_app_section<LayoutRow>(
      j,
      [&](const apps::AppSpec& spec) {
        return measure_layout(spec, variants);
      },
      [](const LayoutRow& r) {
        std::printf("%-8s %10.2f %10.2f %9ld %9.3f   %.2fx\n", r.key.c_str(),
                    r.cold_ms, r.shared_ms, r.restarts, r.driver_layout_ms,
                    ratio(r.cold_ms, r.shared_ms));
      });
  const double layout_x = ratio(layout.cold_ms, layout.shared_ms);
  j.field("speedup_shared_over_cold", layout_x).obj_close();

  print_header("sweep", "8 cold compiles vs SweepEngine vs SweepEngine over "
                        "a warm cache, " +
                            std::to_string(kSweepReps) + " reps, backends "
                            "p4,ebpf,interp");
  std::printf("%-8s %10s %10s %10s   %s\n", "app", "cold ms", "serial ms",
              "cached ms", "cold/serial  cold/cached");
  j.obj_open("sweep")
      .field("grid", kGrid)
      .field("variants", variants.size())
      .field("reps", kSweepReps);
  j.arr_open("backends");
  for (const std::string& b : kBackends) j.item(b);
  j.arr_close();
  // The cached sweeps read and write a private directory, removed below.
  std::string cache_dir = (std::filesystem::temp_directory_path() /
                           "lucid-bench-frontend-XXXXXX")
                              .string();
  if (::mkdtemp(cache_dir.data()) == nullptr) fatal("cannot create cache dir");
  const ArtifactCache cache(cache_dir);
  const SweepRow sweep = per_app_section<SweepRow>(
      j,
      [&](const apps::AppSpec& spec) {
        return measure_sweep(spec, variants, cache);
      },
      [](const SweepRow& r) {
        std::printf("%-8s %10.2f %10.2f %10.2f   %.2fx        %.2fx\n",
                    r.key.c_str(), r.cold_ms, r.serial_ms, r.cached_ms,
                    ratio(r.cold_ms, r.serial_ms),
                    ratio(r.cold_ms, r.cached_ms));
      });
  std::filesystem::remove_all(cache_dir);
  j.field("speedup_cold_over_serial", ratio(sweep.cold_ms, sweep.serial_ms))
      .field("speedup_cold_over_cached", ratio(sweep.cold_ms, sweep.cached_ms))
      .obj_close();

  print_header("incremental", "cold vs structural hit vs one-handler edit "
                              "(through Layout), " +
                                  std::to_string(kIncrementalReps) + " reps");
  std::printf("%-8s %9s %9s %9s %9s %9s %6s %6s   %s\n", "app", "cold ms",
              "hit ms", "edit ms", "cold s+l", "edit s+l", "sema", "lower",
              "cold/hit cold/edit s+l");
  j.obj_open("incremental").field("reps", kIncrementalReps);
  const IncrementalRow inc = per_app_section<IncrementalRow>(
      j, measure_incremental, [](const IncrementalRow& r) {
        std::printf(
            "%-8s %9.2f %9.2f %9.2f %9.2f %9.2f %6ld %6ld   %.2fx %.2fx "
            "%.2fx\n",
            r.key.c_str(), r.cold_ms, r.hit_ms, r.edit_ms, r.cold_sl_ms,
            r.edit_sl_ms, r.sema_reused, r.lower_spliced,
            ratio(r.cold_ms, r.hit_ms), ratio(r.cold_ms, r.edit_ms),
            ratio(r.cold_sl_ms, r.edit_sl_ms));
      });
  const double hit_x = ratio(inc.cold_ms, inc.hit_ms);
  const double edit_sl_x = ratio(inc.cold_sl_ms, inc.edit_sl_ms);
  j.field("speedup_hit_over_cold", hit_x)
      .field("speedup_edit_over_cold", ratio(inc.cold_ms, inc.edit_ms))
      .field("speedup_edit_sema_lower", edit_sl_x)
      .obj_close();

  print_header("targets", "reuse over cold");
  bool ok = true;
  ok &= meets("incremental parse, 512 decls", parse_x, 5.0);
  ok &= meets("patched Phase A, 512 decls", phasea_x, 3.0);
  ok &= meets("shared-analysis layout", layout_x, 2.0);
  ok &= meets("structural-hit recompile", hit_x, 2.0);
  ok &= meets("edit-path Sema+Lower", edit_sl_x, 1.2);
  j.field("gate_passed", ok).obj_close();
  j.save("BENCH_frontend.json");
  return ok ? 0 : 1;
}
