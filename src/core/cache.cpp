#include "core/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "support/strings.hpp"  // fnv1a64

namespace lucid {

std::string options_fingerprint(const DriverOptions& options) {
  const opt::ResourceModel& m = options.model;
  std::ostringstream os;
  os << "model:" << m.max_stages << "," << m.tables_per_stage << ","
     << m.salus_per_stage << "," << m.rules_per_table << ","
     << m.members_per_table << "," << m.alu_ops_per_stage << ";";
  os << "name:" << options.program_name << ";";
  return os.str();
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lucid_artifact_cache_hits_total",
      "Emitted artifacts served from the on-disk artifact cache");
  return c;
}

obs::Counter& misses_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lucid_artifact_cache_misses_total",
      "Artifact cache loads that found no usable entry");
  return c;
}

obs::Counter& writes_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lucid_artifact_cache_writes_total",
      "Emitted artifacts published to the on-disk artifact cache");
  return c;
}

}  // namespace

ArtifactCache::ArtifactCache(std::string cache_dir)
    : dir_(std::move(cache_dir)) {}

std::string ArtifactCache::artifact_path(std::uint64_t source_key,
                                         const DriverOptions& options,
                                         std::string_view backend) const {
  // The key spells out the backend name and compiler version so artifacts
  // for the same source from different emitters (p4 vs ebpf) or different
  // compiler builds can never collide on disk; the in-file "compiler" record
  // stays as a second line of defense for hand-copied entries. source_key
  // is the *structural* key, so every formatting variant of a program maps
  // to one disk entry.
  std::string name = hex64(source_key) + "-" +
                     hex64(fnv1a64(options_fingerprint(options))) + "-" +
                     std::string(backend) + "-v" + std::string(kLucidVersion) +
                     ".art";
  return dir_ + "/" + name;
}

std::optional<BackendArtifact> ArtifactCache::load_artifact(
    const Compilation& comp, std::string_view backend, bool quiet_only) const {
  const auto miss = []() -> std::optional<BackendArtifact> {
    misses_counter().add();
    return std::nullopt;
  };
  if (dir_.empty()) return std::nullopt;
  if (!comp.succeeded(Stage::Parse)) return miss();
  const std::uint64_t skey = comp.structural_hash();
  std::ifstream in(artifact_path(skey, comp.options(), backend),
                   std::ios::binary);
  if (!in) return miss();

  std::string line;
  if (!std::getline(in, line) || line != "lucid-artifact v3") return miss();

  BackendArtifact artifact;
  artifact.ok = true;
  std::size_t text_size = 0;
  bool version_ok = false;
  bool diagnostics_seen = false;
  bool text_seen = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "compiler") {
      // Entries written by a different compiler build are stale: the
      // emitters may have changed, and serving their output would mask it.
      std::string version;
      ls >> version;
      if (version != kLucidVersion) return miss();
      version_ok = true;
    } else if (tag == "skey") {
      // Anti-collision guard: the filename is hash-derived, so require the
      // entry to echo the structural key it was stored under.
      std::string echoed;
      if (!(ls >> echoed) || echoed != hex64(skey)) return miss();
    } else if (tag == "backend") {
      ls >> artifact.backend;
    } else if (tag == "diagnostics") {
      std::size_t count = 0;
      if (!(ls >> count) || (quiet_only && count != 0)) return miss();
      diagnostics_seen = true;
    } else if (tag == "metric") {
      std::string k;
      std::int64_t v = 0;
      if (!(ls >> k >> v)) return miss();  // truncated/corrupt entry
      artifact.metrics[k] = v;
    } else if (tag == "text") {
      if (!(ls >> text_size)) return miss();
      text_seen = true;
      break;
    } else {
      return miss();
    }
  }
  // An entry truncated before its text record (interrupted store) must be a
  // miss, not a successful empty artifact.
  if (!version_ok || !diagnostics_seen || !text_seen ||
      artifact.backend != backend) {
    return miss();
  }
  // The text is the rest of the file. The claimed size is never trusted to
  // allocate: an entry whose size disagrees with the bytes actually there
  // (truncated mid-text, or a corrupt size record) is a miss.
  artifact.text.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  if (artifact.text.size() != text_size) return miss();
  hits_counter().add();
  return artifact;
}

void ArtifactCache::store_artifact(const Compilation& comp,
                                   const BackendArtifact& artifact) const {
  if (dir_.empty() || !artifact.ok || !comp.succeeded(Stage::Parse)) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  // Write-to-temp + rename keeps stores atomic: readers (other processes
  // sharing the cache dir included) only ever see complete entries, and a
  // crash or full disk leaves a .tmp file behind, not a corrupt entry.
  const std::uint64_t skey = comp.structural_hash();
  const std::string path =
      artifact_path(skey, comp.options(), artifact.backend);
  static std::atomic<unsigned> tmp_seq{0};
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(tmp_seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << "lucid-artifact v3\n";
    out << "compiler " << kLucidVersion << "\n";
    out << "skey " << hex64(skey) << "\n";
    out << "backend " << artifact.backend << "\n";
    out << "diagnostics " << comp.diags().all().size() << "\n";
    for (const auto& [k, v] : artifact.metrics) {
      out << "metric " << k << " " << v << "\n";
    }
    out << "text " << artifact.text.size() << "\n";
    out.write(artifact.text.data(),
              static_cast<std::streamsize>(artifact.text.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  writes_counter().add();
}

}  // namespace lucid
