#include "frontend/incremental_parse.hpp"

#include <string>
#include <unordered_map>

#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "support/strings.hpp"

namespace lucid::frontend {

namespace {

/// Byte cursor that tracks line/col and knows how to skip `//` and `/* */`
/// comments — just enough lexing to find decl boundaries.
class Scanner {
 public:
  explicit Scanner(std::string_view src) : src_(src) {}

  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t off = 0) const {
    return pos_ + off < src_.size() ? src_[pos_ + off] : '\0';
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] SrcLoc here() const { return SrcLoc{line_, col_}; }

  void advance() {
    if (at_end()) return;
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  /// Skip whitespace and comments. False on an unterminated block comment.
  bool skip_trivia() {
    for (;;) {
      if (at_end()) return true;
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
        if (at_end()) return false;
        advance();
        advance();
      } else {
        return true;
      }
    }
  }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

bool is_word_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Decl keywords whose declaration ends at the `}` closing the body block
/// (no trailing `;`); every other decl form ends at a depth-0 `;`.
bool brace_terminated(std::string_view keyword) {
  return keyword == "memop" || keyword == "fun" || keyword == "handle";
}

bool known_decl_keyword(std::string_view keyword) {
  return keyword == "const" || keyword == "group" || keyword == "global" ||
         keyword == "event" || brace_terminated(keyword);
}

}  // namespace

std::optional<std::vector<DeclSpan>> scan_decl_spans(std::string_view source) {
  std::vector<DeclSpan> spans;
  Scanner s(source);
  for (;;) {
    if (!s.skip_trivia()) return std::nullopt;  // unterminated /* */
    if (s.at_end()) break;

    DeclSpan span;
    span.begin = s.pos();
    span.start = s.here();

    // The decl keyword decides the terminator shape.
    std::string keyword;
    while (!s.at_end() && is_word_char(s.peek())) {
      keyword.push_back(s.peek());
      s.advance();
    }
    if (!known_decl_keyword(keyword)) return std::nullopt;

    // Walk to the terminator, tracking brace depth through comments.
    int depth = 0;
    bool done = false;
    while (!done) {
      if (!s.skip_trivia()) return std::nullopt;
      if (s.at_end()) return std::nullopt;  // unterminated decl
      const char c = s.peek();
      s.advance();
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        if (depth < 0) return std::nullopt;
        if (depth == 0 && brace_terminated(keyword)) done = true;
      } else if (c == ';' && depth == 0) {
        if (brace_terminated(keyword)) return std::nullopt;  // stray ';'
        done = true;
      }
    }
    span.end = s.pos();
    span.hash = fnv1a64(source.substr(span.begin, span.end - span.begin));
    spans.push_back(span);
  }
  return spans;
}

Program parse_span(std::string_view source, const DeclSpan& span,
                   DiagnosticEngine& diags) {
  Lexer lexer(source.substr(span.begin, span.end - span.begin), diags,
              span.start);
  Parser parser(lexer.lex_all(), diags);
  return parser.parse_program();
}

std::optional<IncrementalParseResult> incremental_parse(
    std::string_view source, std::string_view prev_source,
    const std::vector<DeclSpan>& prev_spans, const Program& prev,
    DiagnosticEngine& diags) {
  // Spans map to decls positionally; if prev's (error-tolerant) parse dropped
  // a decl the correspondence is broken and splicing is unsafe.
  if (prev_spans.size() != prev.decls.size()) return std::nullopt;

  auto spans = scan_decl_spans(source);
  if (!spans) return std::nullopt;

  // hash -> not-yet-consumed prev span indices, in order. Consuming in order
  // keeps duplicate spans (byte-identical decls are illegal anyway, but the
  // scanner doesn't know that) deterministic.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_hash;
  for (std::size_t j = prev_spans.size(); j-- > 0;) {
    by_hash[prev_spans[j].hash].push_back(j);
  }

  IncrementalParseResult result;
  for (std::size_t si = 0; si < spans->size(); ++si) {
    const DeclSpan& span = (*spans)[si];
    const std::string_view text =
        source.substr(span.begin, span.end - span.begin);
    int matched = -1;
    if (auto it = by_hash.find(span.hash); it != by_hash.end()) {
      auto& candidates = it->second;  // back() is the lowest unconsumed index
      for (std::size_t k = candidates.size(); k-- > 0;) {
        const DeclSpan& ps = prev_spans[candidates[k]];
        if (prev_source.substr(ps.begin, ps.end - ps.begin) == text) {
          matched = static_cast<int>(candidates[k]);
          candidates.erase(candidates.begin() + static_cast<long>(k));
          break;
        }
      }
    }
    if (matched >= 0) {
      // Splice the previous node by pointer. Its source ranges still point
      // at prev's buffer layout — byte-identical span text means the decl
      // body is unchanged, but its file offset may have shifted. Sema does
      // not re-check a clean spliced decl, and the recompile re-parses any
      // spliced decl it does re-check (parse_span), so re-check diagnostics
      // carry this buffer's positions.
      result.program.decls.push_back(prev.decls[static_cast<std::size_t>(matched)]);
      result.spliced_from.push_back(matched);
      result.span_of.push_back(si);
      ++result.reused;
      continue;
    }
    for (auto& d : parse_span(source, span, diags).decls) {
      result.program.decls.push_back(std::move(d));
      result.spliced_from.push_back(-1);
      result.span_of.push_back(si);
    }
  }
  result.spans = std::move(*spans);
  return result;
}

}  // namespace lucid::frontend
