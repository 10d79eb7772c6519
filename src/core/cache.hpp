// ArtifactCache: an on-disk store of emitted backend artifacts, shared by
// driver invocations and processes (--cache-dir).
//
// Emission output is a plain string, so it round-trips losslessly. An entry
// is keyed by the compilation's structural key, its options fingerprint,
// the backend name and the compiler version, so artifacts for the same
// source from different emitters or compiler builds never collide. Only
// successful artifacts are stored. Front-end reuse is not the cache's job:
// CompilerDriver::recompile and Compilation::clone_from_stage serve it.
//
// ---------------------------------------------------------------------------
// The key
// ---------------------------------------------------------------------------
//
// *Structural key* — Compilation::structural_hash: FNV-1a over the ordered
// per-decl fingerprint sequence of the compilation's parse
// (frontend/fingerprint.hpp). It is whitespace-, comment- and
// formatting-INSENSITIVE (a reformatted program is a hit) and decl-content-
// and decl-order-SENSITIVE (declaration order assigns pipeline stages and
// wire ids, so a reordered program is a different program). Pinned by
// tests/test_incremental.cpp. A compilation whose Parse failed has no key:
// loads miss and nothing is stored. Entries echo their structural key, so a
// file-name collision cannot serve another program's artifact.
//
// *Options fingerprint* — options_fingerprint: the DriverOptions fields an
// emission depends on (the resource model and the program name). It never
// sees the source; the structural key never sees the options.
//
// An entry records how many diagnostics its compilation reported, not their
// text: the key ignores formatting, so stored positions would be stale for a
// reformatted source. A caller that prints diagnostics (lucidc --emit) loads
// quiet entries only and compiles whenever there is something to report.
//
// Entries are published by write-to-temp + rename, so readers (other
// processes included) only ever see complete entries. A corrupt or
// truncated entry reads as a miss. Hits, misses and writes are counted in
// obs::Registry as lucid_artifact_cache_{hits,misses,writes}_total.
//
// Thread safety: the cache holds no mutable state; any number of threads
// may load and store at once.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/driver.hpp"

namespace lucid {

/// Stable fingerprint of the DriverOptions fields an emission depends on
/// (see the file header for how it composes with the structural key).
[[nodiscard]] std::string options_fingerprint(const DriverOptions& options);

class ArtifactCache {
 public:
  /// The directory is created on first store. An empty `cache_dir` makes
  /// every load a silent miss and every store a no-op.
  explicit ArtifactCache(std::string cache_dir);

  [[nodiscard]] const std::string& cache_dir() const { return dir_; }

  /// Loads the artifact emitted for (comp's structural key, comp.options(),
  /// backend), or nullopt when the entry is absent or corrupt, or comp's
  /// Parse did not succeed. With `quiet_only`, an entry whose compilation
  /// reported diagnostics is a miss too: a hit runs no stage past Parse, so
  /// a caller that prints the compilation's diagnostics would lose them.
  [[nodiscard]] std::optional<BackendArtifact> load_artifact(
      const Compilation& comp, std::string_view backend,
      bool quiet_only = false) const;

  /// Stores a successful artifact emitted from `comp`, with the number of
  /// diagnostics `comp` reported; no-op for a failed artifact.
  void store_artifact(const Compilation& comp,
                      const BackendArtifact& artifact) const;

 private:
  [[nodiscard]] std::string artifact_path(std::uint64_t source_key,
                                          const DriverOptions& options,
                                          std::string_view backend) const;

  std::string dir_;
};

}  // namespace lucid
