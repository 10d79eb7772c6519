// Pretty-printer: renders an AST back to Lucid surface syntax.
// Used for debugging dumps, parser round-trip tests (parse → print →
// parse must produce a structurally identical tree) and, through
// append_decl, as the preimage of the structural fingerprints.
#pragma once

#include <string>

#include "frontend/ast.hpp"

namespace lucid::frontend {

/// Appends the printed decl to `out`: the one walk every print_* and
/// frontend::fingerprint_decl runs.
void append_decl(std::string& out, const Decl& d);

[[nodiscard]] std::string print_expr(const Expr& e);
[[nodiscard]] std::string print_stmt(const Stmt& s, int indent = 0);
[[nodiscard]] std::string print_block(const Block& b, int indent);
[[nodiscard]] std::string print_decl(const Decl& d);
[[nodiscard]] std::string print_program(const Program& p);

/// The *canonical form* of a declaration / program: surface syntax rendered
/// purely from the AST, so comments are stripped, whitespace is normalized,
/// and formatting is stable regardless of how the source was written. Two
/// sources whose decls canonical-print identically are structurally the same
/// program. This is the preimage of the structural fingerprints
/// (frontend/fingerprint.hpp) that key the artifact cache and drive
/// incremental recompiles.
///
/// Contract (pinned by tests): re-parsing a canonical print yields a
/// program_equal tree, and canonical_print is a fixed point (printing the
/// re-parse reproduces the same bytes).
[[nodiscard]] std::string canonical_print_decl(const Decl& d);
[[nodiscard]] std::string canonical_print_program(const Program& p);

/// Structural equality over ASTs, ignoring source ranges and annotations.
/// Used by round-trip tests.
[[nodiscard]] bool expr_equal(const Expr& a, const Expr& b);
[[nodiscard]] bool stmt_equal(const Stmt& a, const Stmt& b);
[[nodiscard]] bool block_equal(const Block& a, const Block& b);
[[nodiscard]] bool decl_equal(const Decl& a, const Decl& b);
[[nodiscard]] bool program_equal(const Program& a, const Program& b);

}  // namespace lucid::frontend
