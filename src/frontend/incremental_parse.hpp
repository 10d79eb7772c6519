// Incremental lexing + parsing by top-level declaration span.
//
// The edit loop's remaining front-end cost is re-lexing and re-parsing the
// whole buffer on every keystroke. This module makes Parse O(edit): a
// lightweight byte scanner (no tokenization) splits a source buffer into
// top-level decl spans, spans are matched byte-for-byte against the previous
// compile's buffer, and every unchanged span *splices* the previous AST node
// by shared pointer — only edited spans are re-lexed (with positions offset
// to their place in the file) and re-parsed.
//
// Contract (see tests/README.md "Incremental front end"):
//   * A spliced decl is the previous compilation's node, annotations and
//     source ranges included. Byte-identical span text guarantees an
//     identical parse and an identical structural fingerprint, so the
//     recompile planner can reuse the previous fingerprint without
//     re-printing.
//   * Spliced nodes are shared between compilations and must not be mutated;
//     CompilerDriver::recompile re-parses (parse_span) any spliced decl that
//     lands in the sema dirty set before re-checking it, so a re-checked
//     decl reports against this buffer's positions, as a cold parse does.
//   * Anything irregular — scanner failure on either buffer, an unknown
//     leading keyword, prev's parse having dropped decls — returns nullopt
//     and the caller falls back to a full Parser::parse. Incremental parse
//     is an optimization, never a semantic fork.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "frontend/ast.hpp"
#include "support/diagnostics.hpp"

namespace lucid::frontend {

/// One top-level declaration's byte span in a source buffer.
struct DeclSpan {
  std::size_t begin = 0;   // first byte of the decl keyword
  std::size_t end = 0;     // one past the last byte (the ';' or '}')
  SrcLoc start;            // line/col of `begin` in the whole buffer
  std::uint64_t hash = 0;  // fnv1a64 over the raw bytes [begin, end)
};

/// Split raw source into top-level decl spans without lexing: skip
/// whitespace/comments, read the decl keyword, and cut at the decl's
/// terminator (`;` at depth 0, or the `}` closing the body block for
/// memop/fun/handle). Returns nullopt on any irregularity — unknown leading
/// word, unbalanced braces, unterminated comment — which callers must treat
/// as "full parse required".
[[nodiscard]] std::optional<std::vector<DeclSpan>> scan_decl_spans(
    std::string_view source);

/// Lexes and parses the decls in `source`'s `span`, with whole-file
/// positions; diagnostics go to `diags`.
[[nodiscard]] Program parse_span(std::string_view source, const DeclSpan& span,
                                 DiagnosticEngine& diags);

struct IncrementalParseResult {
  Program program;
  /// Parallel to program.decls: the index into prev.decls each decl was
  /// spliced from, or -1 when its span was re-parsed.
  std::vector<int> spliced_from;
  /// Parallel to program.decls: the index into `spans` of the span each
  /// decl came from (a span may hold zero or several decls).
  std::vector<std::size_t> span_of;
  /// The new buffer's span table — callers cache it on the new compilation
  /// so the *next* edit scans only its own buffer (see
  /// Compilation::decl_spans).
  std::vector<DeclSpan> spans;
  int reused = 0;  // == count of spliced_from[i] >= 0
};

/// Parse `source` against the previous compile (`prev` parsed from
/// `prev_source`, whose span table `prev_spans` the caller supplies —
/// normally from a cache, so each edit scans one buffer, not two), splicing
/// byte-identical decl spans and re-parsing the rest. Diagnostics from
/// re-parsed spans go to `diags` with whole-file positions. Returns nullopt
/// when splicing is not possible (scanner failure on the new buffer, prev
/// span/decl count mismatch) — caller falls back to Parser::parse.
[[nodiscard]] std::optional<IncrementalParseResult> incremental_parse(
    std::string_view source, std::string_view prev_source,
    const std::vector<DeclSpan>& prev_spans, const Program& prev,
    DiagnosticEngine& diags);

}  // namespace lucid::frontend
