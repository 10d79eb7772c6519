// Structural per-decl fingerprints: the identity a top-level declaration
// keeps across whitespace, comment, and formatting edits.
//
// A `DeclFingerprint` hashes a decl's *canonical print* (frontend/printer's
// `canonical_print_decl`: the AST rendered back to surface syntax, so
// comments are gone and all spacing is normalized) together with its kind
// and name. Two decls have equal fingerprints iff they are structurally
// identical declarations of the same thing — `decl_equal` modulo hash
// collisions (callers that must be collision-proof confirm with
// `decl_equal`, which is cheap).
//
// `structural_hash` folds the *ordered* fingerprint sequence of a whole
// program into one key:
//
//   * whitespace/comment/formatting edits do not change it (the canonical
//     print is identical);
//   * any decl edit, insertion, deletion, or reorder does (order matters:
//     global declaration order is the paper's pipeline-stage specification,
//     and event order assigns wire ids).
//
// Compilation::structural_hash is this hash; the ArtifactCache (core/cache)
// keys its disk entries by it in place of a byte hash of the source. The
// fingerprints are also the unit of diffing for the incremental recompile
// pipeline (CompilerDriver::recompile, sema::plan_recompile).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.hpp"

namespace lucid::frontend {

struct DeclFingerprint {
  DeclKind kind = DeclKind::Const;
  std::string name;
  /// FNV-1a over "<kind>\x1f<name>\x1f<canonical print>".
  std::uint64_t hash = 0;

  friend bool operator==(const DeclFingerprint&,
                         const DeclFingerprint&) = default;
};

/// Stable lower-case decl-kind name ("const", "global", "memop", "fun",
/// "event", "handler", "group") — part of the fingerprint preimage, also
/// used by diagnostics and reports.
[[nodiscard]] std::string_view decl_kind_name(DeclKind k);

[[nodiscard]] DeclFingerprint fingerprint_decl(const Decl& d);

/// One fingerprint per top-level decl, in declaration order.
[[nodiscard]] std::vector<DeclFingerprint> fingerprint_program(
    const Program& p);

/// The program's structural hash: FNV-1a over the ordered fingerprint
/// sequence (kind, name, per-decl hash of every decl, in order).
[[nodiscard]] std::uint64_t structural_hash(
    const std::vector<DeclFingerprint>& fps);
[[nodiscard]] std::uint64_t structural_hash(const Program& p);

}  // namespace lucid::frontend
