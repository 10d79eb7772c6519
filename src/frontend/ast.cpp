#include "frontend/ast.hpp"

namespace lucid::frontend {

std::string Type::str() const {
  switch (kind) {
    case TypeKind::Unknown: return "<unknown>";
    case TypeKind::Void: return "void";
    case TypeKind::Bool: return "bool";
    case TypeKind::Int:
      return width == 32 ? "int" : "int<<" + std::to_string(width) + ">>";
    case TypeKind::Event: return "event";
    case TypeKind::Group: return "group";
    case TypeKind::Array:
      return "Array<<" + std::to_string(width) + ">>";
  }
  return "<bad>";
}

std::string_view binop_name(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::BitAnd: return "&";
    case BinOp::BitOr: return "|";
    case BinOp::BitXor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Gt: return ">";
    case BinOp::Le: return "<=";
    case BinOp::Ge: return ">=";
    case BinOp::LAnd: return "&&";
    case BinOp::LOr: return "||";
  }
  return "?";
}

std::string_view unop_name(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::Not: return "!";
    case UnOp::BitNot: return "~";
  }
  return "?";
}

bool binop_is_comparison(BinOp op) {
  switch (op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Gt:
    case BinOp::Le:
    case BinOp::Ge:
      return true;
    default:
      return false;
  }
}

bool binop_is_logical(BinOp op) {
  return op == BinOp::LAnd || op == BinOp::LOr;
}

const Decl* Program::find(std::string_view name, DeclKind kind) const {
  for (const auto& d : decls) {
    if (d->kind == kind && d->name == name) return d.get();
  }
  return nullptr;
}

Decl* Program::find(std::string_view name, DeclKind kind) {
  for (auto& d : decls) {
    if (d->kind == kind && d->name == name) return d.get();
  }
  return nullptr;
}

const EventDecl* Program::find_event(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Event);
  return d ? d->as<EventDecl>() : nullptr;
}
const HandlerDecl* Program::find_handler(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Handler);
  return d ? d->as<HandlerDecl>() : nullptr;
}
const MemopDecl* Program::find_memop(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Memop);
  return d ? d->as<MemopDecl>() : nullptr;
}
const FunDecl* Program::find_fun(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Fun);
  return d ? d->as<FunDecl>() : nullptr;
}
const GlobalDecl* Program::find_global(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Global);
  return d ? d->as<GlobalDecl>() : nullptr;
}
const GroupDecl* Program::find_group(std::string_view name) const {
  const Decl* d = find(name, DeclKind::Group);
  return d ? d->as<GroupDecl>() : nullptr;
}

std::vector<const GlobalDecl*> Program::globals() const {
  std::vector<const GlobalDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Global) out.push_back(d->as<GlobalDecl>());
  }
  return out;
}

std::vector<const EventDecl*> Program::events() const {
  std::vector<const EventDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Event) out.push_back(d->as<EventDecl>());
  }
  return out;
}

std::vector<const HandlerDecl*> Program::handlers() const {
  std::vector<const HandlerDecl*> out;
  for (const auto& d : decls) {
    if (d->kind == DeclKind::Handler) out.push_back(d->as<HandlerDecl>());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Annotation mirroring
// ---------------------------------------------------------------------------

bool copy_annotations(const Expr& from, Expr& to) {
  if (from.kind != to.kind) return false;
  to.type = from.type;
  switch (from.kind) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return true;
    case ExprKind::VarRef: {
      const auto* src = from.as<VarRefExpr>();
      auto* dst = to.as<VarRefExpr>();
      if (src->name != dst->name) return false;
      dst->is_const = src->is_const;
      dst->const_value = src->const_value;
      dst->is_global_array = src->is_global_array;
      dst->is_group = src->is_group;
      dst->is_memop_ref = src->is_memop_ref;
      return true;
    }
    case ExprKind::Unary:
      return copy_annotations(*from.as<UnaryExpr>()->sub,
                              *to.as<UnaryExpr>()->sub);
    case ExprKind::Binary: {
      const auto* src = from.as<BinaryExpr>();
      auto* dst = to.as<BinaryExpr>();
      return copy_annotations(*src->lhs, *dst->lhs) &&
             copy_annotations(*src->rhs, *dst->rhs);
    }
    case ExprKind::Call: {
      const auto* src = from.as<CallExpr>();
      auto* dst = to.as<CallExpr>();
      if (src->args.size() != dst->args.size()) return false;
      dst->resolved = src->resolved;
      for (std::size_t i = 0; i < src->args.size(); ++i) {
        if (!copy_annotations(*src->args[i], *dst->args[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool copy_annotations(const Stmt& from, Stmt& to) {
  if (from.kind != to.kind) return false;
  switch (from.kind) {
    case StmtKind::LocalDecl:
      return copy_annotations(*from.as<LocalDeclStmt>()->init,
                              *to.as<LocalDeclStmt>()->init);
    case StmtKind::Assign:
      return copy_annotations(*from.as<AssignStmt>()->value,
                              *to.as<AssignStmt>()->value);
    case StmtKind::If: {
      const auto* src = from.as<IfStmt>();
      auto* dst = to.as<IfStmt>();
      return copy_annotations(*src->cond, *dst->cond) &&
             copy_annotations(src->then_block, dst->then_block) &&
             copy_annotations(src->else_block, dst->else_block);
    }
    case StmtKind::ExprStmt:
      return copy_annotations(*from.as<ExprStmt>()->expr,
                              *to.as<ExprStmt>()->expr);
    case StmtKind::Generate:
      return copy_annotations(*from.as<GenerateStmt>()->event,
                              *to.as<GenerateStmt>()->event);
    case StmtKind::Return: {
      const auto* src = from.as<ReturnStmt>();
      auto* dst = to.as<ReturnStmt>();
      if ((src->value == nullptr) != (dst->value == nullptr)) return false;
      return !src->value || copy_annotations(*src->value, *dst->value);
    }
  }
  return false;
}

bool copy_annotations(const Block& from, Block& to) {
  if (from.size() != to.size()) return false;
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (!copy_annotations(*from[i], *to[i])) return false;
  }
  return true;
}

bool copy_annotations(const Decl& from, Decl& to) {
  if (from.kind != to.kind || from.name != to.name) return false;
  switch (from.kind) {
    case DeclKind::Const: {
      const auto* src = from.as<ConstDecl>();
      auto* dst = to.as<ConstDecl>();
      dst->resolved_value = src->resolved_value;
      return copy_annotations(*src->value, *dst->value);
    }
    case DeclKind::Global: {
      const auto* src = from.as<GlobalDecl>();
      auto* dst = to.as<GlobalDecl>();
      dst->resolved_size = src->resolved_size;
      dst->stage_index = src->stage_index;
      return copy_annotations(*src->size, *dst->size);
    }
    case DeclKind::Memop:
      return copy_annotations(from.as<MemopDecl>()->body,
                              to.as<MemopDecl>()->body);
    case DeclKind::Fun:
      return copy_annotations(from.as<FunDecl>()->body,
                              to.as<FunDecl>()->body);
    case DeclKind::Event: {
      to.as<EventDecl>()->event_id = from.as<EventDecl>()->event_id;
      return true;
    }
    case DeclKind::Handler:
      return copy_annotations(from.as<HandlerDecl>()->body,
                              to.as<HandlerDecl>()->body);
    case DeclKind::Group: {
      const auto* src = from.as<GroupDecl>();
      auto* dst = to.as<GroupDecl>();
      if (src->members.size() != dst->members.size()) return false;
      dst->resolved_members = src->resolved_members;
      for (std::size_t i = 0; i < src->members.size(); ++i) {
        if (!copy_annotations(*src->members[i], *dst->members[i])) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace lucid::frontend
