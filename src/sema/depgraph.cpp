#include "sema/depgraph.hpp"

#include <algorithm>
#include <map>

#include "frontend/fingerprint.hpp"
#include "frontend/printer.hpp"

namespace lucid::sema {

using namespace frontend;

namespace {

/// Collects every identifier an expression mentions that could name a
/// top-level decl: VarRefs (including memop references in Array-call
/// argument positions) and call targets. Builtin namespaces (Array.*,
/// Event.*, Sys.*), `hash`, and `SELF` can never be user declarations.
/// string_views point into the AST (stable for the graph's lifetime) — the
/// planner runs once per recompile, so it must not churn allocations.
void collect_expr_refs(const Expr& e, std::vector<std::string_view>& out) {
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return;
    case ExprKind::VarRef: {
      const std::string& name = e.as<VarRefExpr>()->name;
      if (name != "SELF") out.push_back(name);
      return;
    }
    case ExprKind::Unary:
      collect_expr_refs(*e.as<UnaryExpr>()->sub, out);
      return;
    case ExprKind::Binary: {
      const auto* b = e.as<BinaryExpr>();
      collect_expr_refs(*b->lhs, out);
      collect_expr_refs(*b->rhs, out);
      return;
    }
    case ExprKind::Call: {
      const auto* c = e.as<CallExpr>();
      if (c->callee.find('.') == std::string::npos && c->callee != "hash") {
        out.push_back(c->callee);
      }
      for (const auto& a : c->args) collect_expr_refs(*a, out);
      return;
    }
  }
}

void collect_block_refs(const Block& b, std::vector<std::string_view>& out);

void collect_stmt_refs(const Stmt& s, std::vector<std::string_view>& out) {
  switch (s.kind) {
    case StmtKind::LocalDecl:
      collect_expr_refs(*s.as<LocalDeclStmt>()->init, out);
      return;
    case StmtKind::Assign:
      collect_expr_refs(*s.as<AssignStmt>()->value, out);
      return;
    case StmtKind::If: {
      const auto* i = s.as<IfStmt>();
      collect_expr_refs(*i->cond, out);
      collect_block_refs(i->then_block, out);
      collect_block_refs(i->else_block, out);
      return;
    }
    case StmtKind::ExprStmt:
      collect_expr_refs(*s.as<ExprStmt>()->expr, out);
      return;
    case StmtKind::Generate:
      collect_expr_refs(*s.as<GenerateStmt>()->event, out);
      return;
    case StmtKind::Return: {
      const auto* r = s.as<ReturnStmt>();
      if (r->value) collect_expr_refs(*r->value, out);
      return;
    }
  }
}

void collect_block_refs(const Block& b, std::vector<std::string_view>& out) {
  for (const auto& s : b) collect_stmt_refs(*s, out);
}

std::vector<std::string_view> decl_refs(const Decl& d) {
  std::vector<std::string_view> refs;
  switch (d.kind) {
    case DeclKind::Const:
      collect_expr_refs(*d.as<ConstDecl>()->value, refs);
      break;
    case DeclKind::Global:
      collect_expr_refs(*d.as<GlobalDecl>()->size, refs);
      break;
    case DeclKind::Memop:
      collect_block_refs(d.as<MemopDecl>()->body, refs);
      break;
    case DeclKind::Fun:
      collect_block_refs(d.as<FunDecl>()->body, refs);
      break;
    case DeclKind::Event:
      break;  // pure signature: no references
    case DeclKind::Handler:
      collect_block_refs(d.as<HandlerDecl>()->body, refs);
      // A handler is bound to the event of the same name: an event change
      // (signature or wire id) must dirty its handler.
      refs.push_back(d.name);
      break;
    case DeclKind::Group:
      for (const auto& m : d.as<GroupDecl>()->members) {
        collect_expr_refs(*m, refs);
      }
      break;
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  return refs;
}

}  // namespace

DeclDepGraph DeclDepGraph::build(const Program& p) {
  DeclDepGraph g;
  g.nodes.resize(p.decls.size());
  // Handlers are never reference targets: `generate ev(...)` and a
  // handler's own binding both mean the *event* `ev`. Entering handlers
  // here would make every generator of `ev` depend on handler `ev`'s body.
  std::map<std::string_view, std::vector<int>> by_name;
  for (std::size_t i = 0; i < p.decls.size(); ++i) {
    g.nodes[i].kind = p.decls[i]->kind;
    g.nodes[i].name = p.decls[i]->name;
    if (p.decls[i]->kind != DeclKind::Handler) {
      by_name[p.decls[i]->name].push_back(static_cast<int>(i));
    }
  }
  for (std::size_t i = 0; i < p.decls.size(); ++i) {
    g.nodes[i].refs = decl_refs(*p.decls[i]);
    for (const std::string_view name : g.nodes[i].refs) {
      const auto it = by_name.find(name);
      if (it == by_name.end()) continue;
      for (const int j : it->second) {
        if (j == static_cast<int>(i)) continue;  // no self edges
        g.nodes[i].uses.push_back(j);
        g.nodes[static_cast<std::size_t>(j)].used_by.push_back(
            static_cast<int>(i));
      }
    }
  }
  return g;
}

std::vector<int> DeclDepGraph::dependents_closure(
    const std::vector<int>& seeds) const {
  std::vector<bool> seen(nodes.size(), false);
  std::vector<int> worklist;
  for (const int s : seeds) {
    if (s >= 0 && static_cast<std::size_t>(s) < nodes.size() && !seen[s]) {
      seen[static_cast<std::size_t>(s)] = true;
      worklist.push_back(s);
    }
  }
  while (!worklist.empty()) {
    const int i = worklist.back();
    worklist.pop_back();
    for (const int j : nodes[static_cast<std::size_t>(i)].used_by) {
      if (!seen[static_cast<std::size_t>(j)]) {
        seen[static_cast<std::size_t>(j)] = true;
        worklist.push_back(j);
      }
    }
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

RecompilePlan plan_recompile(const Program& prev, const Program& next) {
  return plan_recompile(prev, fingerprint_program(prev), next,
                        fingerprint_program(next));
}

RecompilePlan plan_recompile(const Program& prev,
                             const std::vector<DeclFingerprint>& prev_fps,
                             const Program& next,
                             const std::vector<DeclFingerprint>& next_fps) {
  RecompilePlan plan;
  plan.reuse_from.assign(next.decls.size(), -1);

  // Fast path: element-wise identical fingerprint sequences (the common
  // formatting-only edit). One decl_equal sweep guards against hash
  // collisions; no dependency graph or ordinal analysis is needed.
  if (prev_fps == next_fps && prev.decls.size() == next.decls.size()) {
    bool same = true;
    for (std::size_t i = 0; same && i < next.decls.size(); ++i) {
      same = decl_equal(*prev.decls[i], *next.decls[i]);
    }
    if (same) {
      for (std::size_t i = 0; i < next.decls.size(); ++i) {
        plan.reuse_from[i] = static_cast<int>(i);
      }
      plan.identical = true;
      return plan;
    }
  }

  // (kind, name) matching via sorted index vectors — the planner runs once
  // per recompile, so no node-based containers on this path. Kind-relative
  // ordinals ride along: declaration order assigns globals their pipeline
  // stage and events their wire id, so an ordinal change is a semantic
  // change even when the decl's own text is untouched.
  struct Row {
    DeclKind kind;
    std::string_view name;
    int index;
    int ordinal;  // position among decls of the same kind
    bool dup;     // (kind, name) appears more than once in its program
  };
  const auto rows_of = [](const Program& p) {
    std::vector<Row> rows;
    rows.reserve(p.decls.size());
    int per_kind[8] = {};
    for (std::size_t i = 0; i < p.decls.size(); ++i) {
      const DeclKind k = p.decls[i]->kind;
      rows.push_back(Row{k, p.decls[i]->name, static_cast<int>(i),
                         per_kind[static_cast<int>(k)]++, false});
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.kind != b.kind ? a.kind < b.kind : a.name < b.name;
    });
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
      if (rows[i].kind == rows[i + 1].kind &&
          rows[i].name == rows[i + 1].name) {
        rows[i].dup = rows[i + 1].dup = true;
      }
    }
    return rows;
  };
  const std::vector<Row> prev_rows = rows_of(prev);
  const std::vector<Row> next_rows = rows_of(next);
  const auto find_row = [](const std::vector<Row>& rows, DeclKind kind,
                           std::string_view name) -> const Row* {
    const auto it = std::lower_bound(
        rows.begin(), rows.end(), std::pair(kind, name),
        [](const Row& r, const std::pair<DeclKind, std::string_view>& key) {
          return r.kind != key.first ? r.kind < key.first
                                     : r.name < key.second;
        });
    if (it == rows.end() || it->kind != kind || it->name != name) {
      return nullptr;
    }
    return &*it;
  };

  std::vector<int> dirty_seeds;
  for (const Row& nr : next_rows) {
    const std::size_t i = static_cast<std::size_t>(nr.index);
    const Row* pr = find_row(prev_rows, nr.kind, nr.name);
    bool clean = false;
    if (!nr.dup && pr != nullptr && !pr->dup) {
      const std::size_t j = static_cast<std::size_t>(pr->index);
      // Hash first; decl_equal confirms so a fingerprint collision can never
      // smuggle a changed decl past the diff.
      clean = next_fps[i].hash == prev_fps[j].hash &&
              decl_equal(*prev.decls[j], *next.decls[i]);
      if (clean &&
          (nr.kind == DeclKind::Global || nr.kind == DeclKind::Event)) {
        clean = nr.ordinal == pr->ordinal;
      }
      if (clean) plan.reuse_from[i] = pr->index;
    }
    if (!clean) dirty_seeds.push_back(nr.index);
  }

  const DeclDepGraph graph = DeclDepGraph::build(next);

  // Deleted decls: a decl whose reference to a now-removed name silently
  // kept its own text must still be re-checked (it may now be an error).
  // Deletion is judged per (kind, name), not per name: deleting an event
  // whose same-named handler survives must still dirty that handler — the
  // name alone is still present, but the declaration the reference relied
  // on is gone.
  std::vector<std::string_view> deleted;
  for (const Row& pr : prev_rows) {
    if (find_row(next_rows, pr.kind, pr.name) == nullptr) {
      deleted.push_back(pr.name);
    }
  }
  if (!deleted.empty()) {
    std::sort(deleted.begin(), deleted.end());
    deleted.erase(std::unique(deleted.begin(), deleted.end()),
                  deleted.end());
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      for (const std::string_view r : graph.nodes[i].refs) {
        if (std::binary_search(deleted.begin(), deleted.end(), r)) {
          dirty_seeds.push_back(static_cast<int>(i));
          break;
        }
      }
    }
  }

  for (const int i : graph.dependents_closure(dirty_seeds)) {
    plan.reuse_from[static_cast<std::size_t>(i)] = -1;
  }

  plan.identical = prev.decls.size() == next.decls.size();
  for (std::size_t i = 0; plan.identical && i < plan.reuse_from.size(); ++i) {
    plan.identical = plan.reuse_from[i] == static_cast<int>(i);
  }
  return plan;
}

}  // namespace lucid::sema
