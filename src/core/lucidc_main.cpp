// lucidc — the Lucid compiler command-line driver, on the staged
// CompilerDriver pipeline (Parse → Sema → Lower → Layout → Emit).
//
//   lucidc FILE.lucid                 compile; print a layout summary
//   lucidc --emit=p4 FILE.lucid       emit through a registered backend
//   lucidc --emit=ebpf FILE.lucid     emit a self-contained XDP C program
//   lucidc --emit=interp FILE.lucid   print the interpreter binding summary
//   lucidc --stop-after=STAGE FILE    stop after parse|sema|lower|layout
//   lucidc --time-passes FILE         print per-stage wall-clock timings
//   lucidc --time-passes=json FILE    ... as one machine-readable JSON
//                                     object (consumed by CI)
//   lucidc --sweep=GRID FILE          compile against a resource-model grid
//                                     (e.g. --sweep=stages=8,12;salus=2,4),
//                                     sharing one front-end run across all
//                                     variants
//   lucidc --fit=SPEC FILE            binary-search the smallest resource
//                                     model the program fits (e.g.
//                                     --fit=stages=1..20;salus=2,4: bisect
//                                     stages per enumerated salus row)
//   lucidc --incremental-from=OLD ... recompile against a previous version
//                                     of the source: only decls that
//                                     changed (plus dependents) re-run
//                                     Sema/Lower; whitespace/comment edits
//                                     reuse everything past Parse
//   lucidc --cache-dir=DIR ...        cache emitted artifacts under DIR
//   lucidc --backends=p4,interp ...   backends a --sweep emits (default:
//                                     every registered text backend)
//   lucidc --trace-out=FILE ...       record structured spans across the
//                                     compiler/runtimes and write Chrome
//                                     trace-event JSON (open in Perfetto)
//   lucidc --trace-sample=N ...       record every N-th span (default 1)
//   lucidc --metrics-out=FILE ...     write the process metrics snapshot on
//                                     exit: Prometheus text exposition when
//                                     FILE ends in .prom/.txt, JSON otherwise
//   lucidc --ir / --layout FILE       dump the atomic table graphs / the
//                                     merged pipeline
//   lucidc --list-backends            list registered backends
//   lucidc --version                  print the compiler version
//
// Running a compiled program on the control plane and the native engine is
// examples/runtime_demo.cpp's job, not a lucidc mode.
//
// Exit status: 0 on success, 1 on compilation/input errors, 2 on usage
// errors (unknown flag, missing file operand, unknown stage/backend/grid
// name).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/backends.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/strings.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

void usage(std::ostream& os) {
  os << "usage: lucidc [options] FILE.lucid\n"
        "options:\n"
        "  --emit=BACKEND     emit via a registered backend (see "
        "--list-backends)\n"
        "  --stop-after=STAGE stop after parse|sema|lower|layout\n"
        "  --time-passes      print per-stage wall-clock timings to stderr\n"
        "  --time-passes=json ... as machine-readable JSON (one object)\n"
        "  --sweep=GRID       compile against a resource-model grid, e.g.\n"
        "                     stages=8,12;salus=2,4 "
        "(fields: stages|tables|salus|rules|members|aluops)\n"
        "  --fit=SPEC         bisect the smallest fitting resource model,\n"
        "                     e.g. stages=1..20;salus=2,4 (one MIN..MAX\n"
        "                     range field; exits 1 if any row cannot fit)\n"
        "  --incremental-from=OLD\n"
        "                     recompile reusing a previous compile of OLD:\n"
        "                     only changed decls (and dependents) re-run\n"
        "                     Sema/Lower\n"
        "  --cache-dir=DIR    reuse/store emitted artifacts under DIR\n"
        "  --backends=LIST    backends a --sweep emits (default: p4,ebpf,"
        "interp)\n"
        "  --trace-out=FILE   record spans (compiler stages, sweep jobs,\n"
        "                     interp handlers) and write Chrome trace-event\n"
        "                     JSON on exit — load FILE in ui.perfetto.dev\n"
        "  --trace-sample=N   record every N-th span (default 1 = all)\n"
        "  --metrics-out=FILE write the metrics snapshot on exit\n"
        "                     (.prom/.txt: Prometheus text format; else "
        "JSON)\n"
        "  --ir               dump the atomic table graphs\n"
        "  --layout           dump the merged pipeline\n"
        "  --list-backends    list backends (name, required stage, "
        "description) and exit\n"
        "  --version          print version and exit\n"
        "  -h, --help         this message\n";
}

std::string slurp(const std::string& path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

/// Writes the observability outputs on scope exit, so every return path —
/// success or compile error — flushes what was recorded.
/// (Usage errors return before this guard is armed: nothing ran.)
struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;

  ~ObsOutputs() {
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) {
        out << lucid::obs::Tracer::global().chrome_json();
      } else {
        std::cerr << "lucidc: cannot write trace to '" << trace_path << "'\n";
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        const bool prom = lucid::ends_with(metrics_path, ".prom") ||
                          lucid::ends_with(metrics_path, ".txt");
        out << (prom ? lucid::obs::Registry::global().prometheus()
                     : lucid::obs::Registry::global().json());
      } else {
        std::cerr << "lucidc: cannot write metrics to '" << metrics_path
                  << "'\n";
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  lucid::register_default_backends();

  std::string backend;                            // --emit=...
  lucid::Stage stop_after = lucid::Stage::Layout; // --stop-after=...
  bool stop_requested = false;
  bool time_passes = false;
  bool time_passes_json = false;                  // --time-passes=json
  std::string dump;  // "ir" | "layout"
  std::string sweep_spec;                         // --sweep=...
  bool sweep_requested = false;
  std::string fit_spec;                           // --fit=...
  bool fit_requested = false;
  std::string incremental_from;                   // --incremental-from=...
  std::vector<std::string> sweep_backends;        // --backends=...
  bool backends_requested = false;
  std::string cache_dir;                          // --cache-dir=...
  std::string trace_out;                          // --trace-out=...
  int trace_sample = 1;                           // --trace-sample=...
  std::string metrics_out;                        // --metrics-out=...
  std::string path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return kExitOk;
    } else if (arg == "--version") {
      std::cout << "lucidc (Lucid compiler) " << lucid::kLucidVersion << "\n";
      return kExitOk;
    } else if (arg == "--list-backends") {
      // name, the deepest stage it needs, and a one-line description.
      auto& reg = lucid::BackendRegistry::global();
      std::size_t name_w = 4;
      for (const auto& name : reg.names()) {
        name_w = std::max(name_w, name.size());
      }
      for (const auto& name : reg.names()) {
        const lucid::Backend* b = reg.find(name);
        std::cout << name << std::string(name_w - name.size() + 2, ' ')
                  << "requires=" << lucid::stage_name(b->required_stage())
                  << "  " << b->description() << "\n";
      }
      return kExitOk;
    } else if (lucid::starts_with(arg, "--emit=")) {
      backend = arg.substr(7);
      if (backend.empty()) {
        std::cerr << "lucidc: --emit requires a backend name (see "
                     "--list-backends)\n";
        return kExitUsage;
      }
    } else if (lucid::starts_with(arg, "--stop-after=")) {
      const std::string name = arg.substr(13);
      const auto stage = lucid::stage_from_name(name);
      if (!stage || *stage == lucid::Stage::Emit) {
        std::cerr << "lucidc: unknown stage '" << name
                  << "' (expected parse|sema|lower|layout)\n";
        return kExitUsage;
      }
      stop_after = *stage;
      stop_requested = true;
    } else if (arg == "--time-passes" ||
               lucid::starts_with(arg, "--time-passes=")) {
      time_passes = true;
      if (lucid::starts_with(arg, "--time-passes=")) {
        const std::string format = arg.substr(14);
        if (format == "json") {
          time_passes_json = true;
        } else if (format != "human") {
          std::cerr << "lucidc: unknown --time-passes format '" << format
                    << "' (expected human|json)\n";
          return kExitUsage;
        }
      }
    } else if (lucid::starts_with(arg, "--sweep=") || arg == "--sweep") {
      sweep_spec = arg == "--sweep" ? "" : arg.substr(8);
      sweep_requested = true;
    } else if (lucid::starts_with(arg, "--fit=")) {
      fit_spec = arg.substr(6);
      fit_requested = true;
    } else if (lucid::starts_with(arg, "--incremental-from=")) {
      incremental_from = arg.substr(19);
      if (incremental_from.empty()) {
        std::cerr << "lucidc: --incremental-from requires a file path\n";
        return kExitUsage;
      }
    } else if (lucid::starts_with(arg, "--backends=")) {
      sweep_backends.clear();
      for (const std::string& b : lucid::split(arg.substr(11), ',')) {
        const std::string name{lucid::trim(b)};
        if (!name.empty()) sweep_backends.push_back(name);
      }
      if (sweep_backends.empty()) {
        std::cerr << "lucidc: --backends requires a comma-separated backend "
                     "list (see --list-backends)\n";
        return kExitUsage;
      }
      backends_requested = true;
    } else if (lucid::starts_with(arg, "--cache-dir=")) {
      cache_dir = arg.substr(12);
      if (cache_dir.empty()) {
        std::cerr << "lucidc: --cache-dir requires a directory path\n";
        return kExitUsage;
      }
    } else if (lucid::starts_with(arg, "--trace-out=")) {
      trace_out = arg.substr(12);
      if (trace_out.empty()) {
        std::cerr << "lucidc: --trace-out requires a file path\n";
        return kExitUsage;
      }
    } else if (lucid::starts_with(arg, "--trace-sample=")) {
      const auto parsed = lucid::parse_positive_int(arg.substr(15));
      if (!parsed) {
        std::cerr << "lucidc: --trace-sample requires a positive integer\n";
        return kExitUsage;
      }
      trace_sample = *parsed;
    } else if (lucid::starts_with(arg, "--metrics-out=")) {
      metrics_out = arg.substr(14);
      if (metrics_out.empty()) {
        std::cerr << "lucidc: --metrics-out requires a file path\n";
        return kExitUsage;
      }
    } else if (arg == "--ir") {
      dump = "ir";
    } else if (arg == "--layout") {
      dump = "layout";
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "lucidc: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return kExitUsage;
    } else if (!path.empty()) {
      std::cerr << "lucidc: more than one input file ('" << path << "' and '"
                << arg << "')\n";
      return kExitUsage;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::cerr << "lucidc: no input file\n";
    usage(std::cerr);
    return kExitUsage;
  }

  // Reject contradictory or unsatisfiable combinations up front (exit 2),
  // before any compilation work.
  if (sweep_requested && fit_requested) {
    std::cerr << "lucidc: --sweep and --fit are different drivers; pick "
                 "one\n";
    return kExitUsage;
  }
  if (!incremental_from.empty() && (sweep_requested || fit_requested)) {
    std::cerr << "lucidc: --incremental-from applies to single compiles "
                 "(--emit / dumps / the default summary), not --sweep or "
                 "--fit\n";
    return kExitUsage;
  }
  std::vector<lucid::SweepVariant> sweep_variants;
  if (sweep_requested) {
    if (!backend.empty() || stop_requested || !dump.empty() || time_passes) {
      std::cerr << "lucidc: --sweep runs its own layout+emission pipeline "
                   "and reports per-variant timings itself; it cannot be "
                   "combined with --emit, --stop-after, --ir, --layout, or "
                   "--time-passes\n";
      return kExitUsage;
    }
    std::string grid_error;
    const auto parsed = lucid::parse_sweep_grid(sweep_spec, &grid_error);
    if (!parsed) {
      std::cerr << "lucidc: bad --sweep grid: " << grid_error << "\n";
      return kExitUsage;
    }
    sweep_variants = *parsed;
  }
  std::optional<lucid::FitSpec> fit_parsed;
  if (fit_requested) {
    if (!backend.empty() || stop_requested || !dump.empty() || time_passes) {
      std::cerr << "lucidc: --fit runs its own layout bisection and reports "
                   "per-row results itself; it cannot be combined with "
                   "--emit, --stop-after, --ir, --layout, or "
                   "--time-passes\n";
      return kExitUsage;
    }
    std::string fit_error;
    fit_parsed = lucid::parse_fit_spec(fit_spec, &fit_error);
    if (!fit_parsed) {
      std::cerr << "lucidc: bad --fit spec: " << fit_error << "\n";
      return kExitUsage;
    }
  }
  if (backends_requested) {
    if (!sweep_requested) {
      std::cerr << "lucidc: --backends only applies to --sweep (use --emit "
                   "for a single backend)\n";
      return kExitUsage;
    }
    for (const std::string& name : sweep_backends) {
      if (lucid::BackendRegistry::global().find(name) == nullptr) {
        std::cerr << "lucidc: unknown backend '" << name << "'; registered:";
        for (const auto& n : lucid::BackendRegistry::global().names()) {
          std::cerr << " " << n;
        }
        std::cerr << "\n";
        return kExitUsage;
      }
    }
  }
  if (!cache_dir.empty() && !sweep_requested && backend.empty()) {
    // --fit emits nothing, so the disk layer would never be read or
    // written; rejecting the combination beats silently ignoring it.
    std::cerr << "lucidc: --cache-dir only applies to --emit or --sweep "
                 "(--fit emits no artifacts to cache)\n";
    return kExitUsage;
  }
  if (!backend.empty()) {
    if (stop_requested) {
      std::cerr << "lucidc: --emit runs every stage; it cannot be combined "
                   "with --stop-after\n";
      return kExitUsage;
    }
    if (!dump.empty()) {
      std::cerr << "lucidc: --" << dump
                << " cannot be combined with --emit (pick one output)\n";
      return kExitUsage;
    }
    if (lucid::BackendRegistry::global().find(backend) == nullptr) {
      std::cerr << "lucidc: unknown backend '" << backend << "'; registered:";
      for (const auto& name : lucid::BackendRegistry::global().names()) {
        std::cerr << " " << name;
      }
      std::cerr << "\n";
      return kExitUsage;
    }
  }
  if (dump == "ir" && stop_requested && stop_after < lucid::Stage::Lower) {
    std::cerr << "lucidc: --ir needs the 'lower' stage; conflicting "
                 "--stop-after=" << lucid::stage_name(stop_after) << "\n";
    return kExitUsage;
  }
  if (dump == "layout" && stop_requested &&
      stop_after < lucid::Stage::Layout) {
    std::cerr << "lucidc: --layout needs the 'layout' stage; conflicting "
                 "--stop-after=" << lucid::stage_name(stop_after) << "\n";
    return kExitUsage;
  }

  if (trace_sample != 1 && trace_out.empty()) {
    std::cerr << "lucidc: --trace-sample only applies with --trace-out\n";
    return kExitUsage;
  }

  bool read_ok = false;
  const std::string source = slurp(path, read_ok);
  if (!read_ok) {
    std::cerr << "lucidc: cannot read '" << path << "'\n";
    return kExitError;
  }

  // Observability: arm recording before any compilation work; the guard's
  // destructor writes the outputs on every return path below. --trace-out
  // and --metrics-out compose with every mode.
  ObsOutputs obs_outputs;
  obs_outputs.trace_path = trace_out;
  obs_outputs.metrics_path = metrics_out;
  if (!trace_out.empty()) {
    lucid::obs::TracerConfig tcfg;
    tcfg.sample_every = static_cast<std::uint32_t>(trace_sample);
    lucid::obs::Tracer::global().enable(tcfg);
  }

  lucid::DriverOptions opts;
  opts.program_name = path;
  const lucid::CompilerDriver driver(opts);

  // Resource-model sweep: one front end, N variants, every backend each.
  if (sweep_requested) {
    const lucid::ArtifactCache cache(cache_dir);
    lucid::SweepOptions sweep_opts;
    sweep_opts.variants = std::move(sweep_variants);
    sweep_opts.program_name = path;
    if (backends_requested) sweep_opts.backends = sweep_backends;
    if (!cache_dir.empty()) sweep_opts.cache = &cache;
    const lucid::SweepReport report =
        lucid::SweepEngine().run(source, sweep_opts);
    std::cout << report.str();
    return report.ok ? kExitOk : kExitError;
  }

  // Auto-fitting: bisect the smallest fitting resource model. Exit 0 only
  // when every enumerated row found a fit inside the range. (--fit emits
  // nothing, so --cache-dir is rejected above.)
  if (fit_requested) {
    lucid::FitOptions fit_opts;
    fit_opts.spec = std::move(*fit_parsed);
    fit_opts.program_name = path;
    const lucid::FitReport report =
        lucid::SweepEngine().fit(source, fit_opts);
    std::cout << report.str();
    return report.ok && report.all_fit ? kExitOk : kExitError;
  }

  // Incremental recompile: read the previous version up front (cheap
  // input validation), but defer compiling it until a compilation is
  // actually needed — the --emit disk-cache fast path below skips every
  // stage past Parse, and prev's compile with them.
  std::string prev_source;
  if (!incremental_from.empty()) {
    bool prev_ok = false;
    prev_source = slurp(incremental_from, prev_ok);
    if (!prev_ok) {
      std::cerr << "lucidc: cannot read '" << incremental_from << "'\n";
      return kExitError;
    }
  }
  lucid::CompilationPtr comp;
  const auto make_comp = [&] {
    if (incremental_from.empty()) {
      comp = driver.start(source);
      return;
    }
    // Lower-deep: recompile() reuses Parse..Lower artifacts, and Layout is
    // cheapest paid exactly once — on the result (an edit would invalidate
    // a prev Layout run anyway). Library callers holding a fully compiled
    // prev (the IDE loop) get Layout inherited for free on formatting
    // edits; a one-shot CLI process has no such compile to reuse.
    const lucid::CompilationPtr prev =
        driver.run(prev_source, lucid::Stage::Lower);
    if (!prev->succeeded(lucid::Stage::Lower)) {
      std::cerr << "lucidc: warning: previous version '" << incremental_from
                << "' does not compile; falling back to a cold compile\n";
    }
    // --stop-after bounds the recompile like it bounds a cold compile.
    comp = driver.recompile(prev, source,
                            stop_requested ? stop_after : lucid::Stage::Lower);
  };

  // Shared by every exit path below. In json mode the object is printed as
  // the *last line* of stderr (diagnostics render first), so consumers can
  // `tail -n 1` it robustly.
  const auto print_timings = [&] {
    if (!time_passes) return;
    std::cerr << (time_passes_json ? comp->timing_report_json()
                                   : comp->timing_report());
  };

  // Backends drive exactly the stages they need through the driver's emit().
  if (!backend.empty()) {
    // Disk cache fast path: a prior invocation already emitted this
    // structural (source, options, backend) combination with this compiler
    // version. The key is the structural hash of this source's parse, so the
    // lookup runs Parse on the compilation a miss then continues; a hit
    // skips every later stage (the incremental prev compile included). Only
    // entries whose compilation reported no diagnostics are served, so a
    // run that warns compiles every time and prints what a cold run prints.
    // --time-passes forces a real compile. With --incremental-from, a miss
    // recompiles from prev, so the key parse is the one extra parse.
    const lucid::ArtifactCache cache(cache_dir);
    if (!cache_dir.empty() && !time_passes) {
      comp = driver.run(source, lucid::Stage::Parse);
      if (auto cached =
              cache.load_artifact(*comp, backend, /*quiet_only=*/true)) {
        std::cout << cached->text;
        return kExitOk;
      }
      if (!incremental_from.empty()) comp = nullptr;
    }
    if (comp == nullptr) make_comp();
    const lucid::BackendArtifact artifact = driver.emit(comp, backend);
    std::cerr << comp->diags().render();
    print_timings();
    if (!artifact.ok) return kExitError;
    cache.store_artifact(*comp, artifact);
    std::cout << artifact.text;
    return kExitOk;
  }

  // Dumps imply the stages they need.
  make_comp();
  lucid::Stage until = stop_after;
  if (dump == "ir" && !stop_requested) until = lucid::Stage::Lower;
  driver.run_until(comp, until);

  if (!comp->ok()) {
    std::cerr << comp->diags().render();
    print_timings();
    return kExitError;
  }

  std::cerr << comp->diags().render();
  if (dump == "ir") {
    for (const auto& h : comp->ir().handlers) std::cout << h.str() << "\n";
    print_timings();
    return kExitOk;
  }
  if (dump == "layout") {
    std::cout << comp->pipeline().str();
    print_timings();
    return kExitOk;
  }

  if (stop_requested && stop_after < lucid::Stage::Layout) {
    std::cout << path << ": OK after stage '"
              << lucid::stage_name(stop_after) << "'";
    if (comp->succeeded(lucid::Stage::Sema)) {
      std::cout << " (" << comp->ast().events().size() << " events, "
                << comp->ast().globals().size() << " arrays)";
    }
    std::cout << "\n";
    print_timings();
    return kExitOk;
  }

  const auto& stats = comp->layout_stats();
  std::cout << path << ": compiled OK\n"
            << "  events            : " << comp->ir().events.size() << "\n"
            << "  arrays            : " << comp->ir().arrays.size() << "\n"
            << "  handlers          : " << comp->ir().handlers.size() << "\n"
            << "  unoptimized stages: " << stats.unoptimized_stages << "\n"
            << "  optimized stages  : " << stats.optimized_stages << "\n"
            << "  fits Tofino model : " << (stats.fits ? "yes" : "NO") << "\n";
  if (!incremental_from.empty()) {
    std::cout << "  decls reused      : "
              << comp->record(lucid::Stage::Parse).decls_reused
              << " (parse), "
              << comp->record(lucid::Stage::Sema).decls_reused << " (sema), "
              << comp->record(lucid::Stage::Lower).decls_reused
              << " handler graphs (lower)\n";
  }
  print_timings();
  return kExitOk;
}
