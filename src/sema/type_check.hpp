// Type checking + the ordered type-and-effect system (paper section 5,
// Appendix A), plus name resolution and memop validation.
//
// After `TypeChecker::check` succeeds the AST is fully annotated:
//   - every Expr has a Type;
//   - every CallExpr has a resolved CallKind;
//   - consts/global sizes/group members are evaluated;
//   - globals carry their declaration-order stage index;
//   - events carry dense ids;
// and every handler is proven *well-ordered*: its global accesses follow the
// global declaration order, so the layout problem is guaranteed solvable
// (section 5.1). Ill-ordered programs — like the paper's Figure 5 example —
// are rejected with diagnostics that cite both conflicting accesses.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "frontend/ast.hpp"
#include "sema/effects.hpp"
#include "support/diagnostics.hpp"

namespace lucid::sema {

/// Result facts that later stages and tests consume.
struct AnalysisInfo {
  /// Handler name -> concrete end stage (the "pipeline depth" its global
  /// accesses require).
  std::map<std::string, int> handler_end_stage;
  /// Function name -> inferred effect signature (for tests).
  std::map<std::string, FunEffectSig> fun_sigs;
};

/// Inputs for an incremental re-check (CompilerDriver::recompile): a
/// previously checked (annotated) program, its AnalysisInfo, and the
/// decl-granular reuse plan (sema::plan_recompile). For every decl with
/// `reuse_from[i] >= 0` the checker mirror-copies the previous decl's
/// annotations (frontend::copy_annotations) and reuses its recorded effect
/// signature / end stage instead of re-checking the body; dirty decls are
/// checked from scratch against an environment rebuilt from all decl
/// headers (header collection and const/size evaluation always run in
/// full — they are cheap and keep every header annotation native).
struct SemaReuse {
  const frontend::Program* prev = nullptr;
  const AnalysisInfo* prev_info = nullptr;
  std::vector<int> reuse_from;  // parallel to the new program's decls
};

class TypeChecker {
 public:
  explicit TypeChecker(DiagnosticEngine& diags) : diags_(diags) {}

  /// Checks and annotates `program` in place. Returns true on success.
  bool check(frontend::Program& program) { return check(program, nullptr); }

  /// As above; a non-null `reuse` skips body checks for decls its plan
  /// proves unchanged. Produces the same annotations and artifacts as a
  /// full check (differential-tested); only AnalysisInfo's internal effect
  /// variable numbering may differ.
  bool check(frontend::Program& program, const SemaReuse* reuse);

  [[nodiscard]] const AnalysisInfo& info() const { return info_; }

  /// Number of decls whose body check was skipped by the last check()'s
  /// reuse plan (0 for a full check).
  [[nodiscard]] std::size_t decls_reused() const { return decls_reused_; }

 private:
  struct Impl;
  DiagnosticEngine& diags_;
  AnalysisInfo info_;
  std::size_t decls_reused_ = 0;
};

/// Convenience: parse + check. On failure `ok` is false and `diags` holds
/// the errors.
struct FrontendResult {
  frontend::Program program;
  AnalysisInfo info;
  bool ok = false;
};
[[nodiscard]] FrontendResult parse_and_check(std::string_view source,
                                             DiagnosticEngine& diags);

/// Constant-expression evaluation over `const` declarations; exposed for the
/// parser-level tests and group member resolution.
[[nodiscard]] bool const_eval(const frontend::Expr& e,
                              const std::map<std::string, std::int64_t>& env,
                              std::int64_t& out);

}  // namespace lucid::sema
