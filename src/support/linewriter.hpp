// Shared line accumulator for code-generating backends: every emitted line
// is tagged with a backend-specific LoC category, and counting uses the same
// rule as lucid::count_loc (blank and //-comment lines don't count), so the
// Figure 9/10 LoC breakdowns stay comparable across emitters by
// construction.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "support/strings.hpp"

namespace lucid {

template <typename Category>
class CategoryLineWriter {
 public:
  /// Appends `text` (may span multiple lines) plus a trailing newline,
  /// charging its countable lines to `cat`.
  void line(Category cat, std::string_view text) {
    out_.append(text);
    out_ += '\n';
    counts_[cat] += count_loc(text);
  }
  void blank() { out_ += '\n'; }

  /// Appends a pre-rendered block (its own newlines included) whose
  /// count_loc the caller already knows — for a block repeated many times,
  /// rendered and counted once.
  void block(Category cat, std::string_view text, std::size_t loc) {
    out_.append(text);
    counts_[cat] += loc;
  }

  /// Hands the accumulated text out; the writer is spent afterwards.
  [[nodiscard]] std::string take_text() { return std::move(out_); }
  [[nodiscard]] const std::map<Category, std::size_t>& counts() const {
    return counts_;
  }

 private:
  std::string out_;
  std::map<Category, std::size_t> counts_;
};

}  // namespace lucid
