// DeclDepGraph: which top-level declarations reference which — the edge set
// behind decl-granular invalidation in the incremental recompile pipeline.
//
// Edges are *syntactic* and deliberately over-approximate: a decl's
// reference set is every identifier its body (or initializer, size
// expression, group member list, parameter-free call) mentions that could
// resolve to a top-level name, plus — for handlers — their own name (a
// handler is bound to the event of the same name, so an event-signature or
// event-id change must dirty its handler). A name resolves to every
// non-handler decl of that name: handlers are never reference targets, so
// `generate ev(...)` depends on event `ev`, not on handler `ev`'s body, and
// a handler-body edit dirties that handler alone. Over-approximation only
// costs spurious re-checks, never a stale artifact.
//
// `plan_recompile` diffs two programs at decl granularity using the
// structural fingerprints (frontend/fingerprint.hpp) and this graph:
//
//   dirty seed:  a decl with no unique (kind, name) match in the previous
//                program, a changed fingerprint, or — for globals/events —
//                a changed kind-relative ordinal (declaration order assigns
//                pipeline stages to globals and wire ids to events);
//                plus every decl referencing a *deleted* name.
//   closure:     dirtiness propagates to transitive dependents along
//                reverse reference edges (a handler calling a fun that
//                reads an edited const is dirty, even though neither the
//                handler's nor the fun's text changed).
//
// Everything not dirty is safe to reuse: its sema annotations can be
// mirror-copied from the previous AST (frontend::copy_annotations) and its
// lowered HandlerGraph spliced from the previous IR, producing artifacts
// byte-identical to a cold compile (differential-tested across the paper
// apps in tests/test_incremental.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "frontend/fingerprint.hpp"

namespace lucid::sema {

struct DeclDepGraph {
  struct Node {
    frontend::DeclKind kind = frontend::DeclKind::Const;
    std::string name;
    /// Sorted, deduplicated names this decl references (over-approximate;
    /// may include local variable names — harmless for invalidation).
    /// string_views into the Program's AST: the graph must not outlive the
    /// program it was built from (its one consumer, plan_recompile, does
    /// not — and the planner runs per recompile, so refs stay
    /// allocation-free).
    std::vector<std::string_view> refs;
    /// Indices of decls this decl references (resolved from `refs`).
    std::vector<int> uses;
    /// Reverse edges: decls that reference this one.
    std::vector<int> used_by;
  };
  std::vector<Node> nodes;  // parallel to Program::decls

  [[nodiscard]] static DeclDepGraph build(const frontend::Program& p);

  /// The seeds plus every transitive dependent (along used_by edges),
  /// deduplicated, in ascending index order.
  [[nodiscard]] std::vector<int> dependents_closure(
      const std::vector<int>& seeds) const;
};

/// The decl-granular diff between a previously compiled program and a new
/// parse of (possibly edited) source.
struct RecompilePlan {
  /// Per new-program decl: index of the structurally identical previous
  /// decl whose sema/IR artifacts may be reused, or -1 when the decl is
  /// dirty (new, changed, re-ordered, or a transitive dependent of one).
  std::vector<int> reuse_from;
  /// True when the programs are structurally identical decl-for-decl (same
  /// sequence, every fingerprint equal): the whole front end can be reused.
  bool identical = false;

  [[nodiscard]] std::size_t reused() const {
    std::size_t n = 0;
    for (const int r : reuse_from) n += r >= 0 ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t dirty() const {
    return reuse_from.size() - reused();
  }
};

/// Diffs `next` against the previously compiled `prev` (see the file header
/// for the dirtiness rules). Both arguments are read-only; `prev` is
/// expected to be sema-annotated but only its syntax is consulted. The
/// fingerprint-taking overload skips recomputing them (Compilation caches
/// its own — Compilation::decl_fingerprints); the vectors must be
/// frontend::fingerprint_program of the respective programs. Structurally
/// identical programs short-circuit: after an element-wise fingerprint and
/// decl_equal confirmation, no dependency graph is built at all.
[[nodiscard]] RecompilePlan plan_recompile(
    const frontend::Program& prev,
    const std::vector<frontend::DeclFingerprint>& prev_fps,
    const frontend::Program& next,
    const std::vector<frontend::DeclFingerprint>& next_fps);
[[nodiscard]] RecompilePlan plan_recompile(const frontend::Program& prev,
                                           const frontend::Program& next);

}  // namespace lucid::sema
