#include "sema/type_check.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "frontend/parser.hpp"
#include "obs/trace.hpp"
#include "sema/memop_check.hpp"

namespace lucid::sema {

using namespace frontend;

// ---------------------------------------------------------------------------
// Constant evaluation
// ---------------------------------------------------------------------------

bool const_eval(const Expr& e, const std::map<std::string, std::int64_t>& env,
                std::int64_t& out) {
  switch (e.kind) {
    case ExprKind::IntLit:
      out = static_cast<std::int64_t>(e.as<IntLitExpr>()->value);
      return true;
    case ExprKind::BoolLit:
      out = e.as<BoolLitExpr>()->value ? 1 : 0;
      return true;
    case ExprKind::VarRef: {
      const auto it = env.find(e.as<VarRefExpr>()->name);
      if (it == env.end()) return false;
      out = it->second;
      return true;
    }
    case ExprKind::Unary: {
      const auto* u = e.as<UnaryExpr>();
      std::int64_t v = 0;
      if (!const_eval(*u->sub, env, v)) return false;
      switch (u->op) {
        case UnOp::Neg: out = -v; return true;
        case UnOp::BitNot: out = ~v; return true;
        case UnOp::Not: out = v == 0 ? 1 : 0; return true;
      }
      return false;
    }
    case ExprKind::Binary: {
      const auto* b = e.as<BinaryExpr>();
      std::int64_t l = 0;
      std::int64_t r = 0;
      if (!const_eval(*b->lhs, env, l) || !const_eval(*b->rhs, env, r)) {
        return false;
      }
      switch (b->op) {
        case BinOp::Add: out = l + r; return true;
        case BinOp::Sub: out = l - r; return true;
        case BinOp::Mul: out = l * r; return true;
        case BinOp::Div:
          if (r == 0) return false;
          out = l / r;
          return true;
        case BinOp::Mod:
          if (r == 0) return false;
          out = l % r;
          return true;
        case BinOp::BitAnd: out = l & r; return true;
        case BinOp::BitOr: out = l | r; return true;
        case BinOp::BitXor: out = l ^ r; return true;
        case BinOp::Shl: out = l << r; return true;
        case BinOp::Shr: out = l >> r; return true;
        case BinOp::Eq: out = l == r; return true;
        case BinOp::Ne: out = l != r; return true;
        case BinOp::Lt: out = l < r; return true;
        case BinOp::Gt: out = l > r; return true;
        case BinOp::Le: out = l <= r; return true;
        case BinOp::Ge: out = l >= r; return true;
        case BinOp::LAnd: out = (l != 0 && r != 0); return true;
        case BinOp::LOr: out = (l != 0 || r != 0); return true;
      }
      return false;
    }
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Checker implementation
// ---------------------------------------------------------------------------

namespace {

struct FunInfo {
  FunDecl* decl = nullptr;
  FunEffectSig sig;
  bool checked = false;
  bool in_progress = false;  // recursion detection
};

class Checker {
 public:
  Checker(Program& program, DiagnosticEngine& diags, AnalysisInfo& info,
          const SemaReuse* reuse)
      : program_(program), diags_(diags), info_(info), reuse_(reuse) {}

  bool run();

  [[nodiscard]] std::size_t decls_reused() const { return decls_reused_; }

 private:
  // ---- symbol collection -------------------------------------------------
  void collect_decls();
  void eval_consts_and_globals();
  void prepare_reuse();

  [[nodiscard]] bool is_const_name(std::string_view name) const {
    return consts_.count(std::string(name)) > 0 || name == "SELF";
  }

  // ---- body checking context ----------------------------------------------
  struct Ctx {
    std::vector<std::map<std::string, Type>> scopes;
    EffectTerm cur = EffectTerm::concrete(0);
    // Non-null while checking a `fun`: constraints involving free variables
    // are recorded here instead of being evaluated.
    FunEffectSig* sig = nullptr;
    // Array-typed parameter name -> effect var (fun checking only).
    std::map<std::string, EffectVar> array_params;
    Type return_type = Type::void_ty();
    bool in_handler = false;
    std::string owner;  // handler/fun name for diagnostics
    bool ok = true;     // no error reported in this checking context
  };

  void push_scope(Ctx& ctx) { ctx.scopes.emplace_back(); }
  void pop_scope(Ctx& ctx) { ctx.scopes.pop_back(); }
  bool define_local(Ctx& ctx, const std::string& name, Type t, SrcRange r);
  [[nodiscard]] const Type* lookup_local(const Ctx& ctx,
                                         const std::string& name) const;

  // ---- effects -------------------------------------------------------------
  EffectVar fresh_var() { return next_var_++; }
  void emit_or_check(Ctx& ctx, EffectConstraint c);
  void apply_access(Ctx& ctx, const StageAtom& target, SrcRange site,
                    const std::string& desc);
  std::optional<StageAtom> array_atom(Ctx& ctx, Expr& e);

  // ---- expressions ----------------------------------------------------------
  Type check_expr(Ctx& ctx, Expr& e, int expected_width = -1);
  Type check_var_ref(Ctx& ctx, VarRefExpr& e, int expected_width);
  Type check_binary(Ctx& ctx, BinaryExpr& e, int expected_width);
  Type check_call(Ctx& ctx, CallExpr& e);
  Type check_array_call(Ctx& ctx, CallExpr& e);
  Type check_event_combinator(Ctx& ctx, CallExpr& e);
  bool check_memop_arg(Ctx& ctx, Expr& e, const GlobalDecl* array_hint);

  // ---- statements ------------------------------------------------------------
  /// Returns true when the block definitely returns (so its end effect must
  /// not flow into a join after an enclosing if).
  bool check_block(Ctx& ctx, Block& b);
  bool check_stmt(Ctx& ctx, Stmt& s);

  // ---- declarations ------------------------------------------------------------
  void check_fun(FunInfo& fi);
  void check_handler(HandlerDecl& h);
  void check_bodies();

  Program& program_;
  DiagnosticEngine& diags_;
  AnalysisInfo& info_;

  std::map<std::string, ConstDecl*> consts_;
  std::map<std::string, std::int64_t> const_env_;
  std::map<std::string, GlobalDecl*> globals_;
  std::map<std::string, GroupDecl*> groups_;
  std::map<std::string, MemopDecl*> memops_;
  std::map<std::string, FunInfo> funs_;
  std::map<std::string, EventDecl*> events_;
  std::map<std::string, HandlerDecl*> handlers_;

  // Incremental reuse (see SemaReuse): decls whose body check is skipped
  // this run because their annotations were mirror-copied from the previous
  // compile.
  const SemaReuse* reuse_ = nullptr;
  std::set<const Decl*> skip_body_;
  std::size_t decls_reused_ = 0;

  EffectVar next_var_ = 0;
  bool ok_ = true;
};

bool Checker::run() {
  // Success means *this* pass added no errors; diagnostics already on the
  // engine (e.g. from an unrelated earlier emit attempt) are not ours.
  const std::size_t errors_at_entry = diags_.error_count();
  collect_decls();
  eval_consts_and_globals();
  prepare_reuse();

  // Functions first: fun signatures are demanded by call sites, so checking
  // them all up front means no body check re-enters check_fun. Reused funs
  // arrive pre-checked (prepare_reuse seeded their signatures).
  for (auto& [name, fi] : funs_) {
    if (!fi.checked) check_fun(fi);
  }
  check_bodies();

  return ok_ && diags_.error_count() == errors_at_entry;
}

void Checker::check_bodies() {
  // Memops in map (name) order, then handlers in declaration order; decls
  // validated by the prior compile are skipped.
  for (auto& [name, m] : memops_) {
    if (skip_body_.count(m) != 0) continue;
    obs::ScopedSpan span("sema", "check_memop");
    span.arg("decl", std::string_view(m->name));
    if (!check_memop(
            *m, [this](std::string_view n) { return is_const_name(n); },
            diags_)) {
      ok_ = false;
    }
  }
  for (auto& d : program_.decls) {
    if (d->kind != DeclKind::Handler || skip_body_.count(d.get()) != 0) {
      continue;
    }
    HandlerDecl* h = d->as<HandlerDecl>();
    obs::ScopedSpan span("sema", "check_handler");
    span.arg("decl", std::string_view(h->name));
    check_handler(*h);
  }
}

void Checker::prepare_reuse() {
  if (reuse_ == nullptr || reuse_->prev == nullptr ||
      reuse_->prev_info == nullptr) {
    return;
  }
  const Program& prev = *reuse_->prev;
  const AnalysisInfo& prev_info = *reuse_->prev_info;

  const auto bump_vars = [this](const StageAtom& a) {
    if (a.var >= next_var_) next_var_ = a.var + 1;
  };
  const auto bump_sig = [&](const FunEffectSig& sig) {
    if (sig.start_var >= next_var_) next_var_ = sig.start_var + 1;
    for (const EffectVar v : sig.param_vars) {
      if (v >= next_var_) next_var_ = v + 1;
    }
    for (const StageAtom& a : sig.end.atoms) bump_vars(a);
    for (const EffectConstraint& c : sig.constraints) {
      for (const StageAtom& a : c.lhs.atoms) bump_vars(a);
      bump_vars(c.rhs);
    }
  };

  for (std::size_t i = 0;
       i < program_.decls.size() && i < reuse_->reuse_from.size(); ++i) {
    const int j = reuse_->reuse_from[i];
    if (j < 0 || static_cast<std::size_t>(j) >= prev.decls.size()) continue;
    Decl& d = *program_.decls[i];
    const Decl& p = *prev.decls[static_cast<std::size_t>(j)];
    bool applied = false;
    // A spliced decl IS the previous node (incremental parse shares the
    // pointer): its annotations are already in place, so the mirror copy is
    // skipped — copying onto itself would be a pointless self-write on a
    // node another compilation may be reading.
    const bool same_node = &p == &d;
    switch (d.kind) {
      case DeclKind::Memop:
        applied = same_node || copy_annotations(p, d);
        if (applied) skip_body_.insert(&d);
        break;
      case DeclKind::Fun: {
        const auto sig = prev_info.fun_sigs.find(d.name);
        const auto fit = funs_.find(d.name);
        if (sig != prev_info.fun_sigs.end() && fit != funs_.end() &&
            fit->second.decl == &d && (same_node || copy_annotations(p, d))) {
          fit->second.sig = sig->second;
          fit->second.checked = true;
          info_.fun_sigs[d.name] = sig->second;
          // Fresh variables allocated for re-checked decls must not collide
          // with the ones baked into reused signatures.
          bump_sig(sig->second);
          applied = true;
        }
        break;
      }
      case DeclKind::Handler:
        applied = same_node || copy_annotations(p, d);
        if (applied) {
          skip_body_.insert(&d);
          const auto end = prev_info.handler_end_stage.find(d.name);
          if (end != prev_info.handler_end_stage.end()) {
            info_.handler_end_stage[d.name] = end->second;
          }
        }
        break;
      case DeclKind::Const:
      case DeclKind::Global:
      case DeclKind::Event:
      case DeclKind::Group:
        // Header-only decls: collect_decls/eval_consts_and_globals already
        // recomputed their annotations natively (and cheaply).
        applied = true;
        break;
    }
    if (applied) ++decls_reused_;
  }
}

void Checker::collect_decls() {
  std::set<std::string> names;
  int next_event_id = 0;
  int next_stage = 0;
  for (auto& d : program_.decls) {
    // Handlers share their event's name; everything else must be unique.
    if (d->kind != DeclKind::Handler && !names.insert(d->name).second) {
      diags_.error(d->range, "sema-duplicate-name",
                   "duplicate declaration of '" + d->name + "'");
      ok_ = false;
      continue;
    }
    switch (d->kind) {
      case DeclKind::Const:
        consts_[d->name] = d->as<ConstDecl>();
        break;
      case DeclKind::Global: {
        auto* g = d->as<GlobalDecl>();
        // Spliced decls are shared with the previous compilation — only
        // write the annotation when it actually changes (an unchanged
        // ordinal is the common case; a changed one means the planner
        // already dirtied + un-shared the decl).
        const int stage = next_stage++;
        if (g->stage_index != stage) g->stage_index = stage;
        globals_[d->name] = g;
        break;
      }
      case DeclKind::Group:
        groups_[d->name] = d->as<GroupDecl>();
        break;
      case DeclKind::Memop:
        memops_[d->name] = d->as<MemopDecl>();
        break;
      case DeclKind::Fun:
        funs_[d->name].decl = d->as<FunDecl>();
        break;
      case DeclKind::Event: {
        auto* e = d->as<EventDecl>();
        const int id = next_event_id++;
        if (e->event_id != id) e->event_id = id;
        events_[d->name] = e;
        break;
      }
      case DeclKind::Handler: {
        auto* h = d->as<HandlerDecl>();
        if (handlers_.count(d->name) != 0) {
          diags_.error(d->range, "sema-duplicate-handler",
                       "duplicate handler for event '" + d->name + "'");
          ok_ = false;
        } else {
          handlers_[d->name] = h;
        }
        break;
      }
    }
  }
}

void Checker::eval_consts_and_globals() {
  // Consts are evaluated in declaration order so they may reference earlier
  // consts.
  for (auto& d : program_.decls) {
    if (d->kind == DeclKind::Const) {
      auto* c = d->as<ConstDecl>();
      std::int64_t v = 0;
      if (!const_eval(*c->value, const_env_, v)) {
        diags_.error(c->value->range, "sema-not-constant",
                     "const initializer for '" + c->name +
                         "' is not a compile-time constant");
        ok_ = false;
        continue;
      }
      if (c->resolved_value != v) c->resolved_value = v;
      const_env_[c->name] = v;
    } else if (d->kind == DeclKind::Global) {
      auto* g = d->as<GlobalDecl>();
      if (g->width < 1 || g->width > 64) {
        diags_.error(g->range, "sema-bad-array-width",
                     "cell width of array '" + g->name +
                         "' must be between 1 and 64 bits");
        ok_ = false;
      }
      std::int64_t v = 0;
      if (!const_eval(*g->size, const_env_, v) || v <= 0) {
        diags_.error(g->size->range, "sema-bad-array-size",
                     "array size for '" + g->name +
                         "' must be a positive compile-time constant");
        ok_ = false;
        continue;
      }
      if (g->resolved_size != v) g->resolved_size = v;
    } else if (d->kind == DeclKind::Group) {
      auto* grp = d->as<GroupDecl>();
      std::vector<std::int64_t> members;
      for (auto& m : grp->members) {
        std::int64_t v = 0;
        if (!const_eval(*m, const_env_, v)) {
          diags_.error(m->range, "sema-not-constant",
                       "group members must be compile-time constants");
          ok_ = false;
          continue;
        }
        members.push_back(v);
      }
      if (grp->resolved_members != members) {
        grp->resolved_members = std::move(members);
      }
    }
  }
}

bool Checker::define_local(Ctx& ctx, const std::string& name, Type t,
                           SrcRange r) {
  if (globals_.count(name) || consts_.count(name)) {
    diags_.error(r, "sema-shadows-global",
                 "local '" + name + "' shadows a top-level declaration");
    ctx.ok = false;
    return false;
  }
  auto& scope = ctx.scopes.back();
  if (!scope.emplace(name, t).second) {
    diags_.error(r, "sema-redefined",
                 "'" + name + "' is already defined in this scope");
    ctx.ok = false;
    return false;
  }
  return true;
}

const Type* Checker::lookup_local(const Ctx& ctx,
                                  const std::string& name) const {
  for (auto it = ctx.scopes.rbegin(); it != ctx.scopes.rend(); ++it) {
    const auto found = it->find(name);
    if (found != it->end()) return &found->second;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Effects
// ---------------------------------------------------------------------------

void Checker::emit_or_check(Ctx& ctx, EffectConstraint c) {
  const auto verdict = evaluate(c);
  if (verdict.has_value()) {
    if (!*verdict) {
      // Find the offending atom for a two-sided diagnostic, the paper's
      // "specific lines of code in conflict".
      const StageAtom* blame = nullptr;
      for (const auto& a : c.lhs.atoms) {
        if (a.concrete() && a.offset > c.rhs.offset) {
          if (!blame || a.offset > blame->offset) blame = &a;
        }
      }
      std::string msg = "in '" + ctx.owner + "': " + c.why +
                        " is out of order: the pipeline is already past "
                        "stage " +
                        std::to_string(c.rhs.offset) +
                        " (current stage term: " + c.lhs.str() +
                        "); globals must be accessed in declaration order "
                        "(section 5)";
      diags_.error(c.site, "effect-out-of-order", std::move(msg));
      if (blame && blame->site.valid()) {
        diags_.note(blame->site, "effect-prior-access",
                    "the conflicting earlier " +
                        (blame->origin.empty() ? std::string("access")
                                               : blame->origin) +
                        " is here");
      }
      ctx.ok = false;
    }
    return;
  }
  // Still symbolic: legal only while checking a fun; record for call sites.
  if (ctx.sig != nullptr) {
    ctx.sig->constraints.push_back(std::move(c));
  } else {
    diags_.error(c.site, "effect-unresolved",
                 "internal: unresolved effect constraint in handler context");
    ctx.ok = false;
  }
}

void Checker::apply_access(Ctx& ctx, const StageAtom& target, SrcRange site,
                           const std::string& desc) {
  EffectConstraint c;
  c.lhs = ctx.cur;
  c.rhs = target;
  c.why = desc;
  c.site = site;
  emit_or_check(ctx, std::move(c));

  StageAtom next = target;
  next.offset += 1;
  next.origin = desc;
  next.site = site;
  ctx.cur = EffectTerm::at(next);
}

std::optional<StageAtom> Checker::array_atom(Ctx& ctx, Expr& e) {
  if (e.kind != ExprKind::VarRef) {
    diags_.error(e.range, "sema-array-operand",
                 "the first argument of an Array method must name a global "
                 "array or an Array parameter");
    ctx.ok = false;
    return std::nullopt;
  }
  auto* ref = e.as<VarRefExpr>();
  if (const auto it = globals_.find(ref->name); it != globals_.end()) {
    ref->is_global_array = true;
    e.type = Type::array_ty(it->second->width);
    return StageAtom::concrete_at(it->second->stage_index,
                                  "access to array '" + ref->name + "'",
                                  e.range);
  }
  if (const auto it = ctx.array_params.find(ref->name);
      it != ctx.array_params.end()) {
    const Type* t = lookup_local(ctx, ref->name);
    e.type = t ? *t : Type::array_ty(32);
    return StageAtom::var_at(it->second, 0,
                             "access to array parameter '" + ref->name + "'",
                             e.range);
  }
  diags_.error(e.range, "sema-unknown-array",
               "'" + ref->name + "' is not a global array" +
                   (ctx.sig ? " or Array parameter" : ""));
  ctx.ok = false;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Type Checker::check_expr(Ctx& ctx, Expr& e, int expected_width) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      auto* lit = e.as<IntLitExpr>();
      e.type = Type::int_ty(expected_width > 0 ? expected_width : 32);
      (void)lit;
      return e.type;
    }
    case ExprKind::BoolLit:
      e.type = Type::bool_ty();
      return e.type;
    case ExprKind::VarRef:
      return check_var_ref(ctx, *e.as<VarRefExpr>(), expected_width);
    case ExprKind::Unary: {
      auto* u = e.as<UnaryExpr>();
      const Type sub = check_expr(ctx, *u->sub, expected_width);
      if (u->op == UnOp::Not) {
        if (!sub.is_bool()) {
          diags_.error(e.range, "type-expected-bool",
                       "'!' requires a bool operand, found " + sub.str());
          ctx.ok = false;
        }
        e.type = Type::bool_ty();
      } else {
        if (!sub.is_int()) {
          diags_.error(e.range, "type-expected-int",
                       std::string(unop_name(u->op)) +
                           " requires an int operand, found " + sub.str());
          ctx.ok = false;
        }
        e.type = sub.is_int() ? sub : Type::int_ty();
      }
      return e.type;
    }
    case ExprKind::Binary:
      return check_binary(ctx, *e.as<BinaryExpr>(), expected_width);
    case ExprKind::Call:
      return check_call(ctx, *e.as<CallExpr>());
  }
  e.type = Type::unknown();
  return e.type;
}

Type Checker::check_var_ref(Ctx& ctx, VarRefExpr& e, int expected_width) {
  if (const Type* t = lookup_local(ctx, e.name)) {
    e.type = *t;
    return e.type;
  }
  if (const auto it = consts_.find(e.name); it != consts_.end()) {
    e.is_const = true;
    e.const_value = it->second->resolved_value;
    e.type = it->second->declared_type.is_int() && expected_width > 0
                 ? Type::int_ty(it->second->declared_type.width)
                 : it->second->declared_type;
    return e.type;
  }
  if (e.name == "SELF") {
    // The executing switch's id; bound by the runtime / event scheduler.
    e.type = Type::int_ty(32);
    return e.type;
  }
  if (const auto it = globals_.find(e.name); it != globals_.end()) {
    e.is_global_array = true;
    e.type = Type::array_ty(it->second->width);
    return e.type;
  }
  if (groups_.count(e.name)) {
    e.is_group = true;
    e.type = Type::group_ty();
    return e.type;
  }
  if (memops_.count(e.name)) {
    e.is_memop_ref = true;
    e.type = Type::unknown();  // only meaningful in Array-call positions
    return e.type;
  }
  diags_.error(e.range, "sema-undefined",
               "use of undefined name '" + e.name + "'");
  ctx.ok = false;
  e.type = Type::unknown();
  return e.type;
}

Type Checker::check_binary(Ctx& ctx, BinaryExpr& e, int expected_width) {
  if (binop_is_logical(e.op)) {
    const Type l = check_expr(ctx, *e.lhs);
    const Type r = check_expr(ctx, *e.rhs);
    if (!l.is_bool() || !r.is_bool()) {
      diags_.error(e.range, "type-expected-bool",
                   std::string(binop_name(e.op)) +
                       " requires bool operands, found " + l.str() + " and " +
                       r.str());
      ctx.ok = false;
    }
    e.type = Type::bool_ty();
    return e.type;
  }

  const int want = binop_is_comparison(e.op) ? -1 : expected_width;
  Type l = check_expr(ctx, *e.lhs, want);
  Type r = check_expr(ctx, *e.rhs,
                      l.is_int() && e.lhs->kind != ExprKind::IntLit ? l.width
                                                                    : want);
  // Literal operands conform to the other side's width.
  if (l.is_int() && r.is_int() && l.width != r.width) {
    if (e.lhs->kind == ExprKind::IntLit) {
      e.lhs->type = Type::int_ty(r.width);
      l = e.lhs->type;
    } else if (e.rhs->kind == ExprKind::IntLit) {
      e.rhs->type = Type::int_ty(l.width);
      r = e.rhs->type;
    }
  }
  if (!l.is_int() || !r.is_int()) {
    diags_.error(e.range, "type-expected-int",
                 std::string(binop_name(e.op)) +
                     " requires int operands, found " + l.str() + " and " +
                     r.str());
    ctx.ok = false;
  } else if (l.width != r.width) {
    diags_.error(e.range, "type-width-mismatch",
                 "operand widths differ: " + l.str() + " vs " + r.str());
    ctx.ok = false;
  }
  e.type = binop_is_comparison(e.op) ? Type::bool_ty() : l;
  return e.type;
}

bool Checker::check_memop_arg(Ctx& ctx, Expr& e,
                              const GlobalDecl* array_hint) {
  (void)array_hint;
  if (e.kind != ExprKind::VarRef) {
    diags_.error(e.range, "sema-expected-memop",
                 "expected a memop name in this argument position");
    ctx.ok = false;
    return false;
  }
  auto* ref = e.as<VarRefExpr>();
  const auto it = memops_.find(ref->name);
  if (it == memops_.end()) {
    diags_.error(e.range, "sema-expected-memop",
                 "'" + ref->name + "' is not a declared memop");
    ctx.ok = false;
    return false;
  }
  ref->is_memop_ref = true;
  (void)ctx;
  return true;
}

Type Checker::check_array_call(Ctx& ctx, CallExpr& e) {
  const std::string& m = e.callee;
  const bool is_get = m == "Array.get" || m == "Array.getm";
  const bool is_set = m == "Array.set" || m == "Array.setm";
  const bool is_update = m == "Array.update";
  const bool memop_required = m == "Array.getm" || m == "Array.setm";

  if (e.args.empty()) {
    diags_.error(e.range, "sema-arity", m + " requires arguments");
    ctx.ok = false;
    e.type = Type::unknown();
    return e.type;
  }

  const auto atom = array_atom(ctx, *e.args[0]);
  // Determine the cell width for value/argument checking.
  int cell_width = 32;
  const GlobalDecl* gd = nullptr;
  if (e.args[0]->kind == ExprKind::VarRef) {
    if (const auto it = globals_.find(e.args[0]->as<VarRefExpr>()->name);
        it != globals_.end()) {
      gd = it->second;
      cell_width = gd->width;
    } else if (e.args[0]->type.kind == TypeKind::Array) {
      cell_width = e.args[0]->type.width;
    }
  }

  // Index argument.
  if (e.args.size() < 2) {
    diags_.error(e.range, "sema-arity", m + " requires an index argument");
    ctx.ok = false;
    e.type = Type::unknown();
    return e.type;
  }
  const Type idx_t = check_expr(ctx, *e.args[1]);
  if (!idx_t.is_int()) {
    diags_.error(e.args[1]->range, "type-expected-int",
                 "array index must be an int, found " + idx_t.str());
    ctx.ok = false;
  }

  auto check_value_at = [&](std::size_t i) {
    const Type t = check_expr(ctx, *e.args[i], cell_width);
    if (!t.is_int()) {
      diags_.error(e.args[i]->range, "type-expected-int",
                   "array operand must be an int, found " + t.str());
      ctx.ok = false;
    }
  };

  if (is_get) {
    e.resolved = m == "Array.get" ? CallKind::ArrayGet : CallKind::ArrayGetm;
    if (e.args.size() == 2) {
      if (memop_required) {
        diags_.error(e.range, "sema-arity",
                     "Array.getm requires a memop and argument "
                     "(use Array.get for a plain read)");
        ctx.ok = false;
      }
    } else if (e.args.size() == 4) {
      if (check_memop_arg(ctx, *e.args[2], gd)) check_value_at(3);
    } else {
      diags_.error(e.range, "sema-arity",
                   m + " takes (array, index) or (array, index, memop, arg)");
      ctx.ok = false;
    }
    e.type = Type::int_ty(cell_width);
  } else if (is_set) {
    e.resolved = m == "Array.set" ? CallKind::ArraySet : CallKind::ArraySetm;
    if (e.args.size() == 3) {
      if (memop_required) {
        diags_.error(e.range, "sema-arity",
                     "Array.setm requires a memop and argument "
                     "(use Array.set for a plain write)");
        ctx.ok = false;
      } else {
        check_value_at(2);
      }
    } else if (e.args.size() == 4) {
      if (check_memop_arg(ctx, *e.args[2], gd)) check_value_at(3);
    } else {
      diags_.error(e.range, "sema-arity",
                   m + " takes (array, index, value) or (array, index, "
                       "memop, arg)");
      ctx.ok = false;
    }
    e.type = Type::void_ty();
  } else if (is_update) {
    e.resolved = CallKind::ArrayUpdate;
    if (e.args.size() == 6) {
      const bool get_ok = check_memop_arg(ctx, *e.args[2], gd);
      if (get_ok) check_value_at(3);
      const bool set_ok = check_memop_arg(ctx, *e.args[4], gd);
      if (set_ok) check_value_at(5);
    } else {
      diags_.error(e.range, "sema-arity",
                   "Array.update takes (array, index, get_memop, get_arg, "
                   "set_memop, set_arg)");
      ctx.ok = false;
    }
    e.type = Type::int_ty(cell_width);
  } else {
    diags_.error(e.range, "sema-unknown-builtin",
                 "unknown Array method '" + m + "'");
    ctx.ok = false;
    e.type = Type::unknown();
    return e.type;
  }

  // The stateful access itself: one sALU visit, in declaration order.
  if (atom) {
    apply_access(ctx, *atom, e.range, atom->origin);
  }
  return e.type;
}

Type Checker::check_event_combinator(Ctx& ctx, CallExpr& e) {
  if (e.args.size() != 2) {
    diags_.error(e.range, "sema-arity",
                 e.callee + " takes (event, argument)");
    ctx.ok = false;
    e.type = Type::event_ty();
    return e.type;
  }
  const Type ev = check_expr(ctx, *e.args[0]);
  if (!ev.is_event()) {
    diags_.error(e.args[0]->range, "type-expected-event",
                 e.callee + " expects an event, found " + ev.str());
    ctx.ok = false;
  }
  if (e.callee == "Event.delay") {
    e.resolved = CallKind::EventDelay;
    const Type t = check_expr(ctx, *e.args[1]);
    if (!t.is_int()) {
      diags_.error(e.args[1]->range, "type-expected-int",
                   "Event.delay expects a time in ns, found " + t.str());
      ctx.ok = false;
    }
  } else {
    e.resolved = CallKind::EventLocate;
    const Type t = check_expr(ctx, *e.args[1]);
    if (!t.is_int() && t.kind != TypeKind::Group) {
      diags_.error(e.args[1]->range, "type-expected-location",
                   "Event.locate expects a switch id or group, found " +
                       t.str());
      ctx.ok = false;
    }
  }
  e.type = Type::event_ty();
  return e.type;
}

Type Checker::check_call(Ctx& ctx, CallExpr& e) {
  const std::string& name = e.callee;

  if (name.rfind("Array.", 0) == 0) return check_array_call(ctx, e);
  if (name == "Event.delay" || name == "Event.locate") {
    return check_event_combinator(ctx, e);
  }
  if (name == "Sys.time") {
    e.resolved = CallKind::SysTime;
    if (!e.args.empty()) {
      diags_.error(e.range, "sema-arity", "Sys.time takes no arguments");
      ctx.ok = false;
    }
    e.type = Type::int_ty(32);
    return e.type;
  }
  if (name == "Sys.self") {
    e.resolved = CallKind::SysSelf;
    if (!e.args.empty()) {
      diags_.error(e.range, "sema-arity", "Sys.self takes no arguments");
      ctx.ok = false;
    }
    e.type = Type::int_ty(32);
    return e.type;
  }
  if (name == "hash") {
    e.resolved = CallKind::Hash;
    if (e.args.empty()) {
      diags_.error(e.range, "sema-arity",
                   "hash takes a seed and at least one value");
      ctx.ok = false;
    }
    for (auto& a : e.args) {
      const Type t = check_expr(ctx, *a);
      if (!t.is_int()) {
        diags_.error(a->range, "type-expected-int",
                     "hash arguments must be ints, found " + t.str());
        ctx.ok = false;
      }
    }
    e.type = Type::int_ty(32);
    return e.type;
  }

  // Event constructor.
  if (const auto it = events_.find(name); it != events_.end()) {
    e.resolved = CallKind::EventCtor;
    const auto& params = it->second->params;
    if (e.args.size() != params.size()) {
      diags_.error(e.range, "sema-arity",
                   "event '" + name + "' takes " +
                       std::to_string(params.size()) + " arguments, found " +
                       std::to_string(e.args.size()));
      ctx.ok = false;
    }
    for (std::size_t i = 0; i < e.args.size() && i < params.size(); ++i) {
      const Type t = check_expr(ctx, *e.args[i], params[i].type.width);
      if (!(t == params[i].type) &&
          !(t.is_int() && params[i].type.is_int() &&
            e.args[i]->kind == ExprKind::IntLit)) {
        diags_.error(e.args[i]->range, "type-event-arg",
                     "argument " + std::to_string(i + 1) + " of event '" +
                         name + "' expects " + params[i].type.str() +
                         ", found " + t.str());
        ctx.ok = false;
      }
    }
    e.type = Type::event_ty();
    return e.type;
  }

  // User function call.
  if (const auto it = funs_.find(name); it != funs_.end()) {
    FunInfo& fi = it->second;
    e.resolved = CallKind::UserFun;
    if (fi.in_progress) {
      diags_.error(e.range, "sema-recursion",
                   "recursive functions are not supported in the data plane; "
                   "use a recursive event instead (section 3.1)");
      ctx.ok = false;
      e.type = fi.decl->return_type;
      return e.type;
    }
    if (!fi.checked) check_fun(fi);

    const auto& params = fi.decl->params;
    if (e.args.size() != params.size()) {
      diags_.error(e.range, "sema-arity",
                   "function '" + name + "' takes " +
                       std::to_string(params.size()) + " arguments, found " +
                       std::to_string(e.args.size()));
      ctx.ok = false;
      e.type = fi.decl->return_type;
      return e.type;
    }

    // Build the effect substitution while checking argument types.
    EffectSubst subst;
    subst.atom_for_var.resize(static_cast<std::size_t>(next_var_));
    subst.start_var = fi.sig.start_var;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (params[i].type.kind == TypeKind::Array) {
        const auto atom = array_atom(ctx, *e.args[i]);
        if (atom) {
          const EffectVar v = fi.sig.param_vars[i];
          if (v >= 0) {
            if (static_cast<std::size_t>(v) >= subst.atom_for_var.size()) {
              subst.atom_for_var.resize(static_cast<std::size_t>(v) + 1);
            }
            subst.atom_for_var[static_cast<std::size_t>(v)] = *atom;
          }
        }
        if (e.args[i]->type.kind == TypeKind::Array &&
            e.args[i]->type.width != params[i].type.width) {
          diags_.error(e.args[i]->range, "type-width-mismatch",
                       "array argument width " +
                           std::to_string(e.args[i]->type.width) +
                           " does not match parameter width " +
                           std::to_string(params[i].type.width));
          ctx.ok = false;
        }
      } else {
        const Type t = check_expr(ctx, *e.args[i], params[i].type.width);
        if (!(t == params[i].type) &&
            !(t.is_int() && params[i].type.is_int() &&
              e.args[i]->kind == ExprKind::IntLit)) {
          diags_.error(e.args[i]->range, "type-fun-arg",
                       "argument " + std::to_string(i + 1) + " of '" + name +
                           "' expects " + params[i].type.str() + ", found " +
                           t.str());
          ctx.ok = false;
        }
      }
    }
    subst.start_term = ctx.cur;

    // Instantiate and discharge (or propagate) the callee's constraints.
    for (const auto& c : fi.sig.constraints) {
      EffectConstraint inst;
      inst.lhs = subst.apply(c.lhs);
      inst.rhs = subst.apply_rhs(c.rhs);
      inst.why = c.why + " (inside call to '" + name + "')";
      inst.site = e.range.valid() ? e.range : c.site;
      emit_or_check(ctx, std::move(inst));
    }
    ctx.cur = subst.apply(fi.sig.end);
    e.type = fi.decl->return_type;
    return e.type;
  }

  if (memops_.count(name)) {
    diags_.error(e.range, "sema-memop-call",
                 "memop '" + name +
                     "' cannot be called directly; pass it to an Array "
                     "method (section 4.2)");
    ctx.ok = false;
    e.type = Type::unknown();
    return e.type;
  }

  diags_.error(e.range, "sema-undefined",
               "call to undefined function or event '" + name + "'");
  ctx.ok = false;
  e.type = Type::unknown();
  return e.type;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

bool Checker::check_block(Ctx& ctx, Block& b) {
  push_scope(ctx);
  bool terminated = false;
  for (auto& s : b) {
    terminated = check_stmt(ctx, *s) || terminated;
  }
  pop_scope(ctx);
  return terminated;
}

bool Checker::check_stmt(Ctx& ctx, Stmt& s) {
  switch (s.kind) {
    case StmtKind::LocalDecl: {
      auto* d = s.as<LocalDeclStmt>();
      const Type t = check_expr(ctx, *d->init, d->declared_type.width);
      if (d->declared_type.kind == TypeKind::Event) {
        if (!t.is_event()) {
          diags_.error(d->init->range, "type-expected-event",
                       "initializer must be an event, found " + t.str());
          ctx.ok = false;
        }
      } else if (d->declared_type.is_int()) {
        if (!t.is_int()) {
          diags_.error(d->init->range, "type-expected-int",
                       "initializer must be an int, found " + t.str());
          ctx.ok = false;
        } else if (t.width != d->declared_type.width &&
                   d->init->kind != ExprKind::IntLit) {
          diags_.error(d->init->range, "type-width-mismatch",
                       "initializer width " + std::to_string(t.width) +
                           " does not match declared width " +
                           std::to_string(d->declared_type.width));
          ctx.ok = false;
        }
      } else if (d->declared_type.is_bool()) {
        if (!t.is_bool()) {
          diags_.error(d->init->range, "type-expected-bool",
                       "initializer must be a bool, found " + t.str());
          ctx.ok = false;
        }
      }
      define_local(ctx, d->name, d->declared_type, s.range);
      return false;
    }
    case StmtKind::Assign: {
      auto* a = s.as<AssignStmt>();
      const Type* t = lookup_local(ctx, a->name);
      if (t == nullptr) {
        diags_.error(s.range, "sema-undefined",
                     "assignment to undefined variable '" + a->name + "'");
        ctx.ok = false;
        (void)check_expr(ctx, *a->value);
        return false;
      }
      const Type vt = check_expr(ctx, *a->value, t->width);
      if (t->is_int() && vt.is_int()) {
        if (t->width != vt.width && a->value->kind != ExprKind::IntLit) {
          diags_.error(a->value->range, "type-width-mismatch",
                       "assignment width mismatch: " + t->str() + " vs " +
                           vt.str());
          ctx.ok = false;
        }
      } else if (!(vt == *t)) {
        diags_.error(a->value->range, "type-mismatch",
                     "cannot assign " + vt.str() + " to " + t->str());
        ctx.ok = false;
      }
      return false;
    }
    case StmtKind::If: {
      auto* i = s.as<IfStmt>();
      const Type c = check_expr(ctx, *i->cond);
      if (!c.is_bool()) {
        diags_.error(i->cond->range, "type-expected-bool",
                     "if condition must be a bool, found " + c.str());
        ctx.ok = false;
      }
      // Both branches are laid out in the pipeline (predicated execution):
      // they start at the same stage, and the join continues at the max —
      // but a branch that returns terminates its path, so its end effect
      // must not constrain the continuation.
      const EffectTerm entry = ctx.cur;
      const bool then_term = check_block(ctx, i->then_block);
      const EffectTerm after_then = ctx.cur;
      ctx.cur = entry;
      const bool else_term = check_block(ctx, i->else_block);
      const EffectTerm after_else = ctx.cur;
      if (then_term && else_term) {
        ctx.cur = entry;  // continuation unreachable
        return true;
      }
      if (then_term) {
        ctx.cur = after_else;
      } else if (else_term) {
        ctx.cur = after_then;
      } else {
        ctx.cur = after_then.join(after_else);
      }
      return false;
    }
    case StmtKind::ExprStmt:
      (void)check_expr(ctx, *s.as<ExprStmt>()->expr);
      return false;
    case StmtKind::Generate: {
      auto* g = s.as<GenerateStmt>();
      const Type t = check_expr(ctx, *g->event);
      if (!t.is_event()) {
        diags_.error(g->event->range, "type-expected-event",
                     "generate expects an event, found " + t.str());
        ctx.ok = false;
      }
      return false;
    }
    case StmtKind::Return: {
      auto* r = s.as<ReturnStmt>();
      if (ctx.in_handler) {
        if (r->value) {
          diags_.error(s.range, "type-handler-return",
                       "handlers do not return values");
          ctx.ok = false;
        }
        return true;
      }
      if (ctx.return_type.kind == TypeKind::Void) {
        if (r->value) {
          diags_.error(s.range, "type-return-mismatch",
                       "void function returns a value");
          ctx.ok = false;
        }
      } else {
        if (!r->value) {
          diags_.error(s.range, "type-return-mismatch",
                       "non-void function must return a value");
          ctx.ok = false;
        } else {
          const Type t = check_expr(ctx, *r->value, ctx.return_type.width);
          if (!(t == ctx.return_type) &&
              !(t.is_int() && ctx.return_type.is_int() &&
                r->value->kind == ExprKind::IntLit)) {
            diags_.error(r->value->range, "type-return-mismatch",
                         "return type " + t.str() + " does not match " +
                             ctx.return_type.str());
            ctx.ok = false;
          }
        }
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

void Checker::check_fun(FunInfo& fi) {
  fi.in_progress = true;
  FunDecl& f = *fi.decl;

  Ctx ctx;
  ctx.owner = f.name;
  ctx.sig = &fi.sig;
  ctx.return_type = f.return_type;
  push_scope(ctx);

  fi.sig.start_var = fresh_var();
  ctx.cur = EffectTerm::at(
      StageAtom::var_at(fi.sig.start_var, 0, "start of '" + f.name + "'"));

  fi.sig.param_vars.assign(f.params.size(), -1);
  for (std::size_t i = 0; i < f.params.size(); ++i) {
    const Param& p = f.params[i];
    if (p.type.kind == TypeKind::Array) {
      const EffectVar v = fresh_var();
      fi.sig.param_vars[i] = v;
      ctx.array_params[p.name] = v;
    }
    define_local(ctx, p.name, p.type, p.range);
  }

  check_block(ctx, f.body);
  fi.sig.end = ctx.cur;
  pop_scope(ctx);

  fi.in_progress = false;
  fi.checked = true;
  info_.fun_sigs[f.name] = fi.sig;
  if (!ctx.ok) ok_ = false;
}

void Checker::check_handler(HandlerDecl& h) {
  Ctx ctx;
  ctx.owner = h.name;
  ctx.in_handler = true;
  ctx.cur = EffectTerm::concrete(0);

  const auto ev = events_.find(h.name);
  if (ev == events_.end()) {
    diags_.error(h.range, "sema-handler-without-event",
                 "handler '" + h.name + "' has no matching event declaration");
    ctx.ok = false;
  } else {
    const auto& ep = ev->second->params;
    if (ep.size() != h.params.size()) {
      diags_.error(h.range, "sema-handler-signature",
                   "handler '" + h.name + "' takes " +
                       std::to_string(h.params.size()) +
                       " parameters but event declares " +
                       std::to_string(ep.size()));
      ctx.ok = false;
    } else {
      for (std::size_t i = 0; i < ep.size(); ++i) {
        if (!(ep[i].type == h.params[i].type)) {
          diags_.error(h.params[i].range, "sema-handler-signature",
                       "parameter " + std::to_string(i + 1) + " of handler '" +
                           h.name + "' has type " + h.params[i].type.str() +
                           " but event declares " + ep[i].type.str());
          ctx.ok = false;
        }
      }
    }
  }

  push_scope(ctx);
  for (const Param& p : h.params) define_local(ctx, p.name, p.type, p.range);
  check_block(ctx, h.body);
  pop_scope(ctx);

  if (const auto end = ctx.cur.concrete_value()) {
    info_.handler_end_stage[h.name] = *end;
  }
  if (!ctx.ok) ok_ = false;
}

}  // namespace

bool TypeChecker::check(Program& program, const SemaReuse* reuse) {
  info_ = AnalysisInfo{};
  decls_reused_ = 0;
  Checker checker(program, diags_, info_, reuse);
  const bool ok = checker.run();
  decls_reused_ = checker.decls_reused();
  return ok;
}

FrontendResult parse_and_check(std::string_view source,
                               DiagnosticEngine& diags) {
  FrontendResult r;
  r.program = Parser::parse(source, diags);
  if (diags.has_errors()) return r;
  TypeChecker tc(diags);
  r.ok = tc.check(r.program);
  r.info = tc.info();
  return r;
}

}  // namespace lucid::sema
