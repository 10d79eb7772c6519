// Golden-file tests for the code-generating emitters: the emitted artifact
// for every paper app (apps::all_apps()) is checked in under tests/golden/
// and diffed verbatim — Tofino-style P4_16 as <KEY>.p4 and the eBPF/XDP C
// program as <KEY>.c. Any intentional emitter change regenerates them with
//
//   UPDATE_GOLDEN=1 ./build/test_golden
//
// and the diff is reviewed like any other code change. See tests/README.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/backends.hpp"
#include "core/sweep.hpp"
#include "frontend/progen.hpp"
#include "opt/passes.hpp"
#include "support/strings.hpp"

namespace lucid {
namespace {

/// One golden suite: a text-emitting backend plus its file extension and a
/// structural marker every artifact must contain.
struct GoldenSuite {
  std::string backend;
  std::string extension;
  std::string marker;  // sanity: a full program, not a truncated artifact
};

const std::vector<GoldenSuite>& golden_suites() {
  static const std::vector<GoldenSuite> suites = {
      {"p4", ".p4", "Switch(pipe) main;"},
      {"ebpf", ".c", "SEC(\"license\") char _license[] = \"GPL\";"},
  };
  return suites;
}

std::string golden_path(const std::string& key, const GoldenSuite& suite) {
  return std::string(LUCID_SOURCE_DIR) + "/tests/golden/" + key +
         suite.extension;
}

bool update_requested() {
  const char* env = std::getenv("UPDATE_GOLDEN");
  return env != nullptr && std::string(env) != "0" && std::string(env) != "";
}

std::string emit_app(const apps::AppSpec& spec, const std::string& backend) {
  BackendRegistry registry;
  register_default_backends(registry);
  DriverOptions opts;
  opts.program_name = spec.key;
  const CompilerDriver driver(opts, &registry);
  const CompilationPtr comp = driver.start(spec.source);
  const BackendArtifact artifact = driver.emit(comp, backend);
  EXPECT_TRUE(artifact.ok)
      << spec.key << " via " << backend << ":\n" << comp->diags().render();
  return artifact.text;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

/// Points at the first differing line, with context, so a golden failure is
/// actionable without an external diff tool.
std::string first_difference(const std::string& expected,
                             const std::string& actual) {
  const std::vector<std::string> e = split(expected, '\n');
  const std::vector<std::string> a = split(actual, '\n');
  const std::size_t n = std::max(e.size(), a.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string el = i < e.size() ? e[i] : "<missing line>";
    const std::string al = i < a.size() ? a[i] : "<missing line>";
    if (el != al) {
      std::ostringstream os;
      os << "first difference at line " << (i + 1) << ":\n"
         << "  golden: " << el << "\n"
         << "  actual: " << al << "\n";
      return os.str();
    }
  }
  return "contents differ only in trailing bytes";
}

TEST(Golden, EmissionMatchesCheckedInGolden) {
  for (const GoldenSuite& suite : golden_suites()) {
    for (const apps::AppSpec& spec : apps::all_apps()) {
      SCOPED_TRACE(spec.key + suite.extension);
      const std::string actual = emit_app(spec, suite.backend);
      ASSERT_FALSE(actual.empty());

      const std::string path = golden_path(spec.key, suite);
      if (update_requested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        continue;
      }

      bool read_ok = false;
      const std::string expected = read_file(path, read_ok);
      ASSERT_TRUE(read_ok) << "missing golden file " << path
                           << " — regenerate with UPDATE_GOLDEN=1";
      EXPECT_EQ(expected, actual)
          << first_difference(expected, actual)
          << "if the emitter change is intentional, regenerate with "
             "UPDATE_GOLDEN=1 ./test_golden";
    }
  }
}

// ---------------------------------------------------------------------------
// Layout pipelines (tests/golden/layout/<KEY>.txt)
//
// The optimizer's merged pipeline for every paper app, across the full
// stages=4,8,12,16 x salus=2,4 sweep grid, pinned as Pipeline::str() bytes.
// This is the drift guard for the two-phase layout engine: any change to the
// greedy merger that alters a placement shows up as a byte diff here, for
// every resource-model variant — not just the default Tofino model the
// emitter goldens exercise.
// ---------------------------------------------------------------------------

constexpr const char* kLayoutGoldenGrid = "stages=4,8,12,16;salus=2,4";

std::string layout_golden_path(const std::string& key) {
  return std::string(LUCID_SOURCE_DIR) + "/tests/golden/layout/" + key +
         ".txt";
}

/// Lays the app out against every grid variant and renders one labelled
/// transcript (variant header + Pipeline::str(), in grid order).
std::string layout_transcript(const apps::AppSpec& spec) {
  const auto variants = parse_sweep_grid(kLayoutGoldenGrid);
  EXPECT_TRUE(variants.has_value());
  std::string out;
  for (const SweepVariant& v : *variants) {
    DriverOptions opts;
    opts.model = v.model;
    opts.program_name = spec.key;
    const CompilerDriver driver(opts);
    const CompilationPtr comp = driver.run(spec.source, Stage::Layout);
    EXPECT_TRUE(comp->ok()) << spec.key << " @ " << v.label << ":\n"
                            << comp->diags().render();
    const opt::Pipeline& p = comp->pipeline();
    out += "=== " + v.label + " fits=" + (p.fits ? "yes" : "no") +
           " feasible=" + (p.feasible ? "yes" : "no") + " ===\n";
    out += p.str();
  }
  return out;
}

TEST(Golden, LayoutPipelinesMatchCheckedInGolden) {
  for (const apps::AppSpec& spec : apps::all_apps()) {
    SCOPED_TRACE(spec.key);
    const std::string actual = layout_transcript(spec);
    ASSERT_FALSE(actual.empty());

    const std::string path = layout_golden_path(spec.key);
    if (update_requested()) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      continue;
    }

    bool read_ok = false;
    const std::string expected = read_file(path, read_ok);
    ASSERT_TRUE(read_ok) << "missing golden file " << path
                         << " — regenerate with UPDATE_GOLDEN=1";
    EXPECT_EQ(expected, actual)
        << first_difference(expected, actual)
        << "if the layout change is intentional, regenerate with "
           "UPDATE_GOLDEN=1 ./test_golden";
  }
}

// ---------------------------------------------------------------------------
// Tight-model layouts (tests/golden/layout_tight.txt)
//
// The merger's resource checks — full tables, full stages, the ALU-op cap,
// the rule budget, SALU-full stages that move a pin — fire rarely under the
// default model. This golden pins one line per (program, variant) over a grid
// tight in every dimension, for the ten paper apps plus the 512-decl
// generated program at the default model: a hash of Pipeline::str() and the
// array pins, the fits/feasible flags, the restart count, and the layout
// diagnostics (codes in clear, the full transcript hashed). Each program's
// Phase A runs once; every variant is one Phase B call.
// ---------------------------------------------------------------------------

constexpr const char* kTightLayoutGrid =
    "stages=3,12;tables=1,2,8;members=1,2,12;aluops=1,14;rules=4,512;"
    "salus=1,4";

std::string hash_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

std::string tight_layout_line(const std::string& program,
                              const std::string& label,
                              std::shared_ptr<const opt::LayoutAnalysis> an,
                              const opt::ResourceModel& model) {
  DiagnosticEngine diags;
  const opt::Pipeline p = opt::layout(std::move(an), model, diags);
  std::string pins;
  for (const auto& [array, stage] : p.array_stage) {
    pins += array + "=" + std::to_string(stage) + ";";
  }
  std::string codes;
  std::string transcript;
  for (const Diagnostic& d : diags.all()) {
    if (!codes.empty()) codes += ",";
    codes += d.code;
    transcript += std::string(severity_name(d.severity)) + "|" + d.code +
                  "|" + d.message + "\n";
  }
  return program + " " + label + " fits=" + (p.fits ? "yes" : "no") +
         " feasible=" + (p.feasible ? "yes" : "no") +
         " restarts=" + std::to_string(p.restarts) +
         " stages=" + std::to_string(p.stage_count()) + " pipeline=" +
         hash_hex(p.str() + "\n" + pins) +
         " diags=" + hash_hex(transcript) + " " +
         (codes.empty() ? "-" : codes) + "\n";
}

std::shared_ptr<const opt::LayoutAnalysis> analysis_of(
    const std::string& source) {
  const CompilerDriver driver;
  const CompilationPtr comp = driver.run(source, Stage::Lower);
  EXPECT_TRUE(comp->ok()) << comp->diags().render();
  return opt::analyze_layout(comp->ir());
}

std::string tight_layout_transcript() {
  const auto variants = parse_sweep_grid(kTightLayoutGrid);
  EXPECT_TRUE(variants.has_value());
  std::string out;
  for (const apps::AppSpec& spec : apps::all_apps()) {
    const auto an = analysis_of(spec.source);
    for (const SweepVariant& v : *variants) {
      out += tight_layout_line(spec.key, v.label, an, v.model);
    }
  }
  frontend::ProgenConfig cfg;
  cfg.handlers = 240;  // the 512-decl program of bench_frontend and edit-p4
  cfg.stmts_per_handler = 28;
  out += tight_layout_line("progen512", "tofino",
                           analysis_of(frontend::generate_program(cfg)),
                           opt::ResourceModel::tofino());
  return out;
}

TEST(Golden, TightModelLayoutsMatchCheckedInGolden) {
  const std::string actual = tight_layout_transcript();
  const std::string path =
      std::string(LUCID_SOURCE_DIR) + "/tests/golden/layout_tight.txt";
  if (update_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  bool read_ok = false;
  const std::string expected = read_file(path, read_ok);
  ASSERT_TRUE(read_ok) << "missing golden file " << path
                       << " — regenerate with UPDATE_GOLDEN=1";
  EXPECT_EQ(expected, actual)
      << first_difference(expected, actual)
      << "if the layout change is intentional, regenerate with "
         "UPDATE_GOLDEN=1 ./test_golden";
}

TEST(Golden, EmissionIsDeterministic) {
  // Golden files are only meaningful if emission is a pure function of the
  // compilation; two independent compiles must agree byte-for-byte.
  for (const GoldenSuite& suite : golden_suites()) {
    for (const apps::AppSpec& spec : apps::all_apps()) {
      SCOPED_TRACE(spec.key + suite.extension);
      EXPECT_EQ(emit_app(spec, suite.backend), emit_app(spec, suite.backend));
    }
  }
}

TEST(Golden, GoldenFilesCarryRealPrograms) {
  if (update_requested()) GTEST_SKIP() << "regeneration run";
  for (const GoldenSuite& suite : golden_suites()) {
    for (const apps::AppSpec& spec : apps::all_apps()) {
      SCOPED_TRACE(spec.key + suite.extension);
      bool read_ok = false;
      const std::string text =
          read_file(golden_path(spec.key, suite), read_ok);
      ASSERT_TRUE(read_ok) << "missing golden file for " << spec.key
                           << suite.extension;
      // Structural sanity: a full program, not a truncated artifact.
      EXPECT_NE(text.find(suite.marker), std::string::npos);
      EXPECT_GT(count_loc(text), 50u);
    }
  }
}

}  // namespace
}  // namespace lucid
