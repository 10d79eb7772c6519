#include "frontend/printer.hpp"

#include <charconv>

namespace lucid::frontend {

namespace {

// One walk appends every node to one buffer: the pretty-printer, the
// canonical form and the structural fingerprints all read these bytes.

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void pad(std::string& out, int indent) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

void append_expr(std::string& out, const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      const auto* lit = e.as<IntLitExpr>();
      const std::uint64_t v = lit->value;
      if (!lit->is_time) {
        append_int(out, v);
      } else if (v % 1'000'000'000 == 0) {  // the largest exact unit
        append_int(out, v / 1'000'000'000);
        out += 's';
      } else if (v % 1'000'000 == 0) {
        append_int(out, v / 1'000'000);
        out += "ms";
      } else if (v % 1'000 == 0) {
        append_int(out, v / 1'000);
        out += "us";
      } else {
        append_int(out, v);
        out += "ns";
      }
      return;
    }
    case ExprKind::BoolLit:
      out += e.as<BoolLitExpr>()->value ? "true" : "false";
      return;
    case ExprKind::VarRef:
      out += e.as<VarRefExpr>()->name;
      return;
    case ExprKind::Unary: {
      const auto* u = e.as<UnaryExpr>();
      out += unop_name(u->op);
      out += '(';
      append_expr(out, *u->sub);
      out += ')';
      return;
    }
    case ExprKind::Binary: {
      const auto* b = e.as<BinaryExpr>();
      out += '(';
      append_expr(out, *b->lhs);
      out += ' ';
      out += binop_name(b->op);
      out += ' ';
      append_expr(out, *b->rhs);
      out += ')';
      return;
    }
    case ExprKind::Call: {
      const auto* c = e.as<CallExpr>();
      out += c->callee;
      out += '(';
      for (std::size_t i = 0; i < c->args.size(); ++i) {
        if (i > 0) out += ", ";
        append_expr(out, *c->args[i]);
      }
      out += ')';
      return;
    }
  }
  out += "<bad-expr>";
}

void append_stmt(std::string& out, const Stmt& s, int indent);

void append_block(std::string& out, const Block& b, int indent) {
  out += "{\n";
  for (const auto& s : b) append_stmt(out, *s, indent + 1);
  pad(out, indent);
  out += '}';
}

void append_stmt(std::string& out, const Stmt& s, int indent) {
  pad(out, indent);
  switch (s.kind) {
    case StmtKind::LocalDecl: {
      const auto* d = s.as<LocalDeclStmt>();
      out += d->declared_type.str();
      out += ' ';
      out += d->name;
      out += " = ";
      append_expr(out, *d->init);
      out += ";\n";
      return;
    }
    case StmtKind::Assign: {
      const auto* a = s.as<AssignStmt>();
      out += a->name;
      out += " = ";
      append_expr(out, *a->value);
      out += ";\n";
      return;
    }
    case StmtKind::If: {
      const auto* i = s.as<IfStmt>();
      out += "if (";
      append_expr(out, *i->cond);
      out += ") ";
      append_block(out, i->then_block, indent);
      if (!i->else_block.empty()) {
        out += " else ";
        append_block(out, i->else_block, indent);
      }
      out += '\n';
      return;
    }
    case StmtKind::ExprStmt:
      append_expr(out, *s.as<ExprStmt>()->expr);
      out += ";\n";
      return;
    case StmtKind::Generate: {
      const auto* g = s.as<GenerateStmt>();
      out += g->multicast ? "mgenerate " : "generate ";
      append_expr(out, *g->event);
      out += ";\n";
      return;
    }
    case StmtKind::Return: {
      const auto* r = s.as<ReturnStmt>();
      out += "return";
      if (r->value) {
        out += ' ';
        append_expr(out, *r->value);
      }
      out += ";\n";
      return;
    }
  }
}

void append_params(std::string& out, const std::vector<Param>& params) {
  out += '(';
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += params[i].type.str();
    out += ' ';
    out += params[i].name;
  }
  out += ')';
}

/// `(params) {body}\n`: the tail shared by memop, fun and handle.
void append_callable(std::string& out, const std::vector<Param>& params,
                     const Block& body) {
  append_params(out, params);
  out += ' ';
  append_block(out, body, 0);
  out += '\n';
}

}  // namespace

void append_decl(std::string& out, const Decl& d) {
  switch (d.kind) {
    case DeclKind::Const: {
      const auto* c = d.as<ConstDecl>();
      out += "const ";
      out += c->declared_type.str();
      out += ' ';
      out += d.name;
      out += " = ";
      append_expr(out, *c->value);
      out += ";\n";
      return;
    }
    case DeclKind::Global: {
      const auto* g = d.as<GlobalDecl>();
      out += "global ";
      out += d.name;
      out += " = new Array<<";
      append_int(out, g->width);
      out += ">>(";
      append_expr(out, *g->size);
      out += ");\n";
      return;
    }
    case DeclKind::Memop: {
      const auto* m = d.as<MemopDecl>();
      out += "memop ";
      out += d.name;
      append_callable(out, m->params, m->body);
      return;
    }
    case DeclKind::Fun: {
      const auto* f = d.as<FunDecl>();
      out += "fun ";
      out += f->return_type.str();
      out += ' ';
      out += d.name;
      append_callable(out, f->params, f->body);
      return;
    }
    case DeclKind::Event:
      out += "event ";
      out += d.name;
      append_params(out, d.as<EventDecl>()->params);
      out += ";\n";
      return;
    case DeclKind::Handler: {
      const auto* h = d.as<HandlerDecl>();
      out += "handle ";
      out += d.name;
      append_callable(out, h->params, h->body);
      return;
    }
    case DeclKind::Group: {
      const auto* g = d.as<GroupDecl>();
      out += "const group ";
      out += d.name;
      out += " = {";
      for (std::size_t i = 0; i < g->members.size(); ++i) {
        if (i > 0) out += ", ";
        append_expr(out, *g->members[i]);
      }
      out += "};\n";
      return;
    }
  }
}

std::string print_expr(const Expr& e) {
  std::string out;
  append_expr(out, e);
  return out;
}

std::string print_block(const Block& b, int indent) {
  std::string out;
  append_block(out, b, indent);
  return out;
}

std::string print_stmt(const Stmt& s, int indent) {
  std::string out;
  append_stmt(out, s, indent);
  return out;
}

std::string print_decl(const Decl& d) {
  std::string out;
  append_decl(out, d);
  return out;
}

std::string print_program(const Program& p) {
  std::string out;
  for (const auto& d : p.decls) append_decl(out, *d);
  return out;
}

// The pretty-printer already renders purely from the AST — no comments, one
// normalized spacing — so it *is* the canonical form. These names pin that
// contract for fingerprint consumers: print_decl may evolve for human
// output, but canonical_print_decl changing means every structural cache key
// changes, which the fingerprint tests guard.
std::string canonical_print_decl(const Decl& d) { return print_decl(d); }

std::string canonical_print_program(const Program& p) {
  return print_program(p);
}

// ---------------------------------------------------------------------------
// Structural equality
// ---------------------------------------------------------------------------

bool expr_equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::IntLit: {
      const auto* x = a.as<IntLitExpr>();
      const auto* y = b.as<IntLitExpr>();
      return x->value == y->value;
    }
    case ExprKind::BoolLit:
      return a.as<BoolLitExpr>()->value == b.as<BoolLitExpr>()->value;
    case ExprKind::VarRef:
      return a.as<VarRefExpr>()->name == b.as<VarRefExpr>()->name;
    case ExprKind::Unary: {
      const auto* x = a.as<UnaryExpr>();
      const auto* y = b.as<UnaryExpr>();
      return x->op == y->op && expr_equal(*x->sub, *y->sub);
    }
    case ExprKind::Binary: {
      const auto* x = a.as<BinaryExpr>();
      const auto* y = b.as<BinaryExpr>();
      return x->op == y->op && expr_equal(*x->lhs, *y->lhs) &&
             expr_equal(*x->rhs, *y->rhs);
    }
    case ExprKind::Call: {
      const auto* x = a.as<CallExpr>();
      const auto* y = b.as<CallExpr>();
      if (x->callee != y->callee || x->args.size() != y->args.size()) {
        return false;
      }
      for (std::size_t i = 0; i < x->args.size(); ++i) {
        if (!expr_equal(*x->args[i], *y->args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool block_equal(const Block& a, const Block& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!stmt_equal(*a[i], *b[i])) return false;
  }
  return true;
}

bool stmt_equal(const Stmt& a, const Stmt& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case StmtKind::LocalDecl: {
      const auto* x = a.as<LocalDeclStmt>();
      const auto* y = b.as<LocalDeclStmt>();
      return x->declared_type == y->declared_type && x->name == y->name &&
             expr_equal(*x->init, *y->init);
    }
    case StmtKind::Assign: {
      const auto* x = a.as<AssignStmt>();
      const auto* y = b.as<AssignStmt>();
      return x->name == y->name && expr_equal(*x->value, *y->value);
    }
    case StmtKind::If: {
      const auto* x = a.as<IfStmt>();
      const auto* y = b.as<IfStmt>();
      return expr_equal(*x->cond, *y->cond) &&
             block_equal(x->then_block, y->then_block) &&
             block_equal(x->else_block, y->else_block);
    }
    case StmtKind::ExprStmt:
      return expr_equal(*a.as<ExprStmt>()->expr, *b.as<ExprStmt>()->expr);
    case StmtKind::Generate: {
      const auto* x = a.as<GenerateStmt>();
      const auto* y = b.as<GenerateStmt>();
      return x->multicast == y->multicast && expr_equal(*x->event, *y->event);
    }
    case StmtKind::Return: {
      const auto* x = a.as<ReturnStmt>();
      const auto* y = b.as<ReturnStmt>();
      if ((x->value == nullptr) != (y->value == nullptr)) return false;
      return !x->value || expr_equal(*x->value, *y->value);
    }
  }
  return false;
}

namespace {

bool params_equal(const std::vector<Param>& a, const std::vector<Param>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].type == b[i].type) || a[i].name != b[i].name) return false;
  }
  return true;
}

}  // namespace

bool decl_equal(const Decl& a, const Decl& b) {
  if (a.kind != b.kind || a.name != b.name) return false;
  switch (a.kind) {
    case DeclKind::Const: {
      const auto* x = a.as<ConstDecl>();
      const auto* y = b.as<ConstDecl>();
      return x->declared_type == y->declared_type &&
             expr_equal(*x->value, *y->value);
    }
    case DeclKind::Global: {
      const auto* x = a.as<GlobalDecl>();
      const auto* y = b.as<GlobalDecl>();
      return x->width == y->width && expr_equal(*x->size, *y->size);
    }
    case DeclKind::Memop: {
      const auto* x = a.as<MemopDecl>();
      const auto* y = b.as<MemopDecl>();
      return params_equal(x->params, y->params) &&
             block_equal(x->body, y->body);
    }
    case DeclKind::Fun: {
      const auto* x = a.as<FunDecl>();
      const auto* y = b.as<FunDecl>();
      return x->return_type == y->return_type &&
             params_equal(x->params, y->params) &&
             block_equal(x->body, y->body);
    }
    case DeclKind::Event: {
      const auto* x = a.as<EventDecl>();
      const auto* y = b.as<EventDecl>();
      return params_equal(x->params, y->params);
    }
    case DeclKind::Handler: {
      const auto* x = a.as<HandlerDecl>();
      const auto* y = b.as<HandlerDecl>();
      return params_equal(x->params, y->params) &&
             block_equal(x->body, y->body);
    }
    case DeclKind::Group: {
      const auto* x = a.as<GroupDecl>();
      const auto* y = b.as<GroupDecl>();
      if (x->members.size() != y->members.size()) return false;
      for (std::size_t i = 0; i < x->members.size(); ++i) {
        if (!expr_equal(*x->members[i], *y->members[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool program_equal(const Program& a, const Program& b) {
  if (a.decls.size() != b.decls.size()) return false;
  for (std::size_t i = 0; i < a.decls.size(); ++i) {
    if (!decl_equal(*a.decls[i], *b.decls[i])) return false;
  }
  return true;
}

}  // namespace lucid::frontend
