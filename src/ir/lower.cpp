// Lowering: type-checked AST -> atomic table graphs (paper section 6.1).
//
// Function calls are inlined (sema guarantees no recursion), expressions are
// flattened into three-address temporaries, and every statement becomes an
// atomic table. Event values bound to `event` locals are resolved to pending
// GenStmts whose operands are snapshotted at the binding point.
#include <functional>
#include <set>

#include "ir/ir.hpp"
#include "support/bits.hpp"

namespace lucid::ir {

using namespace frontend;

std::string_view cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Gt: return ">";
    case CmpOp::Le: return "<=";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

std::string_view table_kind_name(TableKind k) {
  switch (k) {
    case TableKind::Op: return "op";
    case TableKind::Mem: return "mem";
    case TableKind::Hash: return "hash";
    case TableKind::Generate: return "generate";
    case TableKind::Branch: return "branch";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// AtomicTable introspection
// ---------------------------------------------------------------------------

namespace {
void add_if_var(std::vector<std::string>& out, const Operand& o) {
  if (o.is_var()) out.push_back(o.var);
}
}  // namespace

std::vector<std::string> AtomicTable::reads() const {
  std::vector<std::string> out;
  switch (kind) {
    case TableKind::Op:
      add_if_var(out, op.lhs);
      add_if_var(out, op.rhs);
      break;
    case TableKind::Mem:
      add_if_var(out, mem.index);
      add_if_var(out, mem.get_arg);
      add_if_var(out, mem.set_arg);
      add_if_var(out, mem.set_value);
      break;
    case TableKind::Hash:
      for (const auto& a : hash.args) add_if_var(out, a);
      break;
    case TableKind::Generate:
      for (const auto& a : gen.args) add_if_var(out, a);
      add_if_var(out, gen.delay);
      add_if_var(out, gen.location);
      break;
    case TableKind::Branch:
      add_if_var(out, branch.subject);
      break;
  }
  return out;
}

std::vector<std::string> AtomicTable::writes() const {
  std::vector<std::string> out;
  switch (kind) {
    case TableKind::Op:
      out.push_back(op.dst);
      break;
    case TableKind::Mem:
      if (!mem.dst.empty()) out.push_back(mem.dst);
      break;
    case TableKind::Hash:
      out.push_back(hash.dst);
      break;
    case TableKind::Generate:
    case TableKind::Branch:
      break;
  }
  return out;
}

std::vector<std::string> AtomicTable::guard_reads() const {
  std::vector<std::string> out;
  for (const auto& conj : guards) {
    for (const auto& t : conj) out.push_back(t.var);
  }
  return out;
}

std::string AtomicTable::str() const {
  std::string s = "[" + std::to_string(id) + ":" +
                  std::string(table_kind_name(kind)) + "] ";
  switch (kind) {
    case TableKind::Op:
      s += op.dst + " = " + op.lhs.str();
      if (op.op) {
        s += " " + std::string(binop_name(*op.op)) + " " + op.rhs.str();
      }
      break;
    case TableKind::Mem: {
      const char* k = mem.kind == MemKind::Get
                          ? "get"
                          : (mem.kind == MemKind::Set ? "set" : "update");
      s += (mem.dst.empty() ? std::string("_") : mem.dst) + " = " + k + "(" +
           mem.array + ", " + mem.index.str() + ")";
      break;
    }
    case TableKind::Hash:
      s += hash.dst + " = hash(...)";
      break;
    case TableKind::Generate:
      s += "generate " + gen.event;
      break;
    case TableKind::Branch:
      s += "if " + branch.subject.str() + " " +
           std::string(cmp_name(branch.cmp)) + " " +
           std::to_string(branch.constant);
      break;
  }
  return s;
}

// ---------------------------------------------------------------------------
// HandlerGraph
// ---------------------------------------------------------------------------

int HandlerGraph::longest_path() const {
  if (entry < 0) return 0;
  std::vector<int> memo(tables.size(), -1);
  // Tables form a DAG; longest path by depth-first walk with memoization.
  std::vector<int> stack;
  const std::function<int(int)> walk = [&](int id) -> int {
    if (id < 0) return 0;
    int& m = memo[static_cast<std::size_t>(id)];
    if (m >= 0) return m;
    int best = 0;
    for (const int n : tables[static_cast<std::size_t>(id)].next) {
      best = std::max(best, walk(n));
    }
    m = 1 + best;
    return m;
  };
  return walk(entry);
}

std::string HandlerGraph::str() const {
  std::string s = "handler " + handler + " (entry " + std::to_string(entry) +
                  ")\n";
  for (const auto& t : tables) {
    s += "  " + t.str() + " ->";
    for (const int n : t.next) s += " " + std::to_string(n);
    s += "\n";
  }
  return s;
}

const ArrayInfo* ProgramIR::find_array(std::string_view name) const {
  const auto it = array_index.find(std::string(name));
  return it == array_index.end() ? nullptr
                                 : &arrays[static_cast<std::size_t>(it->second)];
}

const MemopInfo* ProgramIR::find_memop(std::string_view name) const {
  const auto it = memop_index.find(std::string(name));
  return it == memop_index.end() ? nullptr
                                 : &memops[static_cast<std::size_t>(it->second)];
}

const EventInfo* ProgramIR::find_event(std::string_view name) const {
  for (const auto& ev : events) {
    if (ev.name == name) return &ev;
  }
  return nullptr;
}

const EventInfo* ProgramIR::unfit_event() const {
  for (const EventInfo& ev : events) {
    if (ev.params.size() > static_cast<std::size_t>(pisa::kMaxArgs)) {
      return &ev;
    }
  }
  return nullptr;
}

bool ProgramIR::admit_event(std::string_view name,
                            std::span<const std::int64_t> args,
                            pisa::Packet* out) const {
  const EventInfo* ev = find_event(name);
  if (ev == nullptr || args.size() != ev->params.size() ||
      args.size() > static_cast<std::size_t>(pisa::kMaxArgs)) {
    return false;
  }
  out->event_id = ev->event_id;
  out->nargs = static_cast<std::int32_t>(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    out->args[i] = support::mask_width(args[i], ev->params[i].second);
  }
  return true;
}

int ProgramIR::max_handler_longest_path() const {
  int best = 0;
  for (const auto& h : handlers) best = std::max(best, h.longest_path());
  return best;
}

int ProgramIR::total_longest_path() const {
  int total = 0;
  for (const auto& h : handlers) total += h.longest_path();
  return total;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

namespace {

CmpOp binop_to_cmp(BinOp op) {
  switch (op) {
    case BinOp::Eq: return CmpOp::Eq;
    case BinOp::Ne: return CmpOp::Ne;
    case BinOp::Lt: return CmpOp::Lt;
    case BinOp::Gt: return CmpOp::Gt;
    case BinOp::Le: return CmpOp::Le;
    case BinOp::Ge: return CmpOp::Ge;
    default: return CmpOp::Eq;
  }
}

CmpOp mirror_cmp(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return CmpOp::Eq;
    case CmpOp::Ne: return CmpOp::Ne;
    case CmpOp::Lt: return CmpOp::Gt;
    case CmpOp::Gt: return CmpOp::Lt;
    case CmpOp::Le: return CmpOp::Ge;
    case CmpOp::Ge: return CmpOp::Le;
  }
  return op;
}

/// Canonicalizes a validated memop body into MemopInfo operand form.
class MemopLowerer {
 public:
  MemopLowerer(const MemopDecl& decl,
               const std::map<std::string, std::int64_t>& consts)
      : decl_(decl), consts_(consts) {}

  MemopInfo run() {
    MemopInfo info;
    info.name = decl_.name;
    if (decl_.body.size() == 1 && decl_.body[0]->kind == StmtKind::Return) {
      lower_return(*decl_.body[0]->as<ReturnStmt>()->value, info.then_lhs,
                   info.then_op, info.then_rhs);
      info.else_lhs = info.then_lhs;
      info.else_op = info.then_op;
      info.else_rhs = info.then_rhs;
      return info;
    }
    const auto* ifs = decl_.body[0]->as<IfStmt>();
    info.has_condition = true;
    const auto* cond = ifs->cond->as<BinaryExpr>();
    info.cond_lhs = operand(*cond->lhs);
    info.cond_op = binop_to_cmp(cond->op);
    info.cond_rhs = operand(*cond->rhs);
    lower_return(*ifs->then_block[0]->as<ReturnStmt>()->value, info.then_lhs,
                 info.then_op, info.then_rhs);
    lower_return(*ifs->else_block[0]->as<ReturnStmt>()->value, info.else_lhs,
                 info.else_op, info.else_rhs);
    return info;
  }

 private:
  Operand operand(const Expr& e) const {
    if (e.kind == ExprKind::IntLit) {
      return Operand::imm(
          static_cast<std::int64_t>(e.as<IntLitExpr>()->value));
    }
    const auto& name = e.as<VarRefExpr>()->name;
    if (!decl_.params.empty() && name == decl_.params[0].name) {
      return Operand::of_var("cell");
    }
    if (decl_.params.size() > 1 && name == decl_.params[1].name) {
      return Operand::of_var("arg");
    }
    const auto it = consts_.find(name);
    return Operand::imm(it == consts_.end() ? 0 : it->second);
  }

  void lower_return(const Expr& e, Operand& lhs,
                    std::optional<BinOp>& op, Operand& rhs) const {
    if (e.kind == ExprKind::Binary) {
      const auto* b = e.as<BinaryExpr>();
      lhs = operand(*b->lhs);
      op = b->op;
      rhs = operand(*b->rhs);
    } else {
      lhs = operand(e);
      op.reset();
      rhs = Operand::none();
    }
  }

  const MemopDecl& decl_;
  const std::map<std::string, std::int64_t>& consts_;
};

/// Builds one handler's atomic table graph.
class HandlerBuilder {
 public:
  HandlerBuilder(const Program& prog, const ProgramIR& meta,
                 const std::map<std::string, std::int64_t>& consts,
                 DiagnosticEngine& diags)
      : prog_(prog), meta_(meta), consts_(consts), diags_(diags) {}

  HandlerGraph build(const HandlerDecl& h) {
    graph_ = HandlerGraph{};
    graph_.handler = h.name;
    const auto* ev = prog_.find_event(h.name);
    graph_.event_id = ev ? ev->event_id : -1;

    // Pre-scan for assigned locals: they are materialized, never aliased.
    assigned_.clear();
    collect_assigned(h.body);

    sub_.clear();
    event_vals_.clear();
    for (const auto& p : h.params) {
      sub_[p.name] = Operand::of_var(p.name, p.type.width);
    }
    lower_block(h.body, /*in_function=*/false, /*ret_var=*/"");
    return std::move(graph_);
  }

 private:
  // A dangling edge: table `id`, slot `slot` in its next vector (-1 = append).
  struct Exit {
    int id;
    int slot;
  };

  void collect_assigned(const Block& b) {
    for (const auto& s : b) {
      if (s->kind == StmtKind::Assign) {
        assigned_.insert(s->as<AssignStmt>()->name);
      } else if (s->kind == StmtKind::If) {
        collect_assigned(s->as<IfStmt>()->then_block);
        collect_assigned(s->as<IfStmt>()->else_block);
      }
    }
  }

  int append(AtomicTable t) {
    t.id = static_cast<int>(graph_.tables.size());
    t.handler = graph_.handler;
    if (t.kind == TableKind::Branch) t.next = {-1, -1};
    graph_.tables.push_back(std::move(t));
    const int id = graph_.tables.back().id;
    connect(cur_, id);
    if (graph_.entry < 0) graph_.entry = id;
    cur_ = {Exit{id, -1}};
    return id;
  }

  void connect(const std::vector<Exit>& exits, int target) {
    for (const auto& e : exits) {
      auto& nxt = graph_.tables[static_cast<std::size_t>(e.id)].next;
      if (e.slot < 0) {
        nxt.push_back(target);
      } else {
        nxt[static_cast<std::size_t>(e.slot)] = target;
      }
    }
  }

  std::string fresh_tmp(int width) {
    const std::string name = "__t" + std::to_string(tmp_counter_++);
    var_width_[name] = width;
    return name;
  }

  int width_of(const Expr& e) const {
    return e.type.is_int() || e.type.is_bool() ? e.type.width : 32;
  }

  // ---- expression flattening -----------------------------------------------

  Operand flatten(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Operand::imm(
            static_cast<std::int64_t>(e.as<IntLitExpr>()->value),
            width_of(e));
      case ExprKind::BoolLit:
        return Operand::imm(e.as<BoolLitExpr>()->value ? 1 : 0, 1);
      case ExprKind::VarRef: {
        const auto* v = e.as<VarRefExpr>();
        if (v->is_const) return Operand::imm(v->const_value, width_of(e));
        if (v->name == "SELF") return Operand::of_var("__self", 32);
        const auto it = sub_.find(v->name);
        if (it != sub_.end()) return it->second;
        if (v->is_global_array || v->is_group || v->is_memop_ref) {
          // Only meaningful in call argument positions; callers handle them.
          return Operand::of_var(v->name, width_of(e));
        }
        return Operand::of_var(v->name, width_of(e));
      }
      case ExprKind::Unary: {
        const auto* u = e.as<UnaryExpr>();
        const Operand sub = flatten(*u->sub);
        const int w = width_of(e);
        AtomicTable t;
        t.kind = TableKind::Op;
        t.op.dst = fresh_tmp(w);
        t.op.width = w;
        switch (u->op) {
          case UnOp::Neg:
            t.op.lhs = Operand::imm(0, w);
            t.op.op = BinOp::Sub;
            t.op.rhs = sub;
            break;
          case UnOp::BitNot:
            t.op.lhs = sub;
            t.op.op = BinOp::BitXor;
            t.op.rhs = Operand::imm(-1, w);
            break;
          case UnOp::Not:
            t.op.lhs = sub;
            t.op.op = BinOp::Eq;
            t.op.rhs = Operand::imm(0, 1);
            break;
        }
        const std::string dst = t.op.dst;
        append(std::move(t));
        return Operand::of_var(dst, w);
      }
      case ExprKind::Binary: {
        const auto* b = e.as<BinaryExpr>();
        const Operand l = flatten(*b->lhs);
        const Operand r = flatten(*b->rhs);
        const int w = width_of(e);
        // Fold `hash(...) & (2^n - 1)` into the hash unit's output width.
        if (b->op == BinOp::BitAnd) {
          const Operand* hv = nullptr;
          const Operand* mv = nullptr;
          if (l.is_var() && r.is_const()) {
            hv = &l;
            mv = &r;
          } else if (r.is_var() && l.is_const()) {
            hv = &r;
            mv = &l;
          }
          if (hv != nullptr && mv->value > 0 &&
              ((mv->value + 1) & mv->value) == 0 && !graph_.tables.empty() &&
              cur_.size() == 1 && cur_[0].slot == -1 &&
              cur_[0].id == graph_.tables.back().id &&
              graph_.tables.back().kind == TableKind::Hash &&
              graph_.tables.back().hash.dst == hv->var) {
            graph_.tables.back().hash.mask = mv->value;
            return *hv;
          }
        }
        AtomicTable t;
        t.kind = TableKind::Op;
        t.op.dst = fresh_tmp(w);
        t.op.width = w;
        t.op.lhs = l;
        // Logical and/or over predicate bits become bitwise ops; the
        // hardware evaluates both predicates in parallel.
        if (b->op == BinOp::LAnd) {
          t.op.op = BinOp::BitAnd;
        } else if (b->op == BinOp::LOr) {
          t.op.op = BinOp::BitOr;
        } else {
          t.op.op = b->op;
        }
        t.op.rhs = r;
        const std::string dst = t.op.dst;
        append(std::move(t));
        return Operand::of_var(dst, w);
      }
      case ExprKind::Call:
        return flatten_call(*e.as<CallExpr>());
    }
    return Operand::none();
  }

  std::string resolve_array(const Expr& e) {
    if (e.kind != ExprKind::VarRef) return {};
    const auto& name = e.as<VarRefExpr>()->name;
    const auto it = sub_.find(name);
    if (it != sub_.end() && it->second.is_var() &&
        meta_.array_index.count(it->second.var)) {
      return it->second.var;  // array parameter bound by inlining
    }
    return name;
  }

  Operand flatten_call(const CallExpr& c) {
    switch (c.resolved) {
      case CallKind::ArrayGet:
      case CallKind::ArrayGetm: {
        AtomicTable t;
        t.kind = TableKind::Mem;
        t.mem.array = resolve_array(*c.args[0]);
        t.mem.kind = MemKind::Get;
        const ArrayInfo* ai = meta_.find_array(t.mem.array);
        t.mem.cell_width = ai ? ai->width : 32;
        t.mem.index = flatten(*c.args[1]);
        if (c.args.size() == 4) {
          t.mem.get_memop = c.args[2]->as<VarRefExpr>()->name;
          t.mem.get_arg = flatten(*c.args[3]);
        }
        t.mem.dst = fresh_tmp(t.mem.cell_width);
        const std::string dst = t.mem.dst;
        const int w = t.mem.cell_width;
        append(std::move(t));
        return Operand::of_var(dst, w);
      }
      case CallKind::ArraySet:
      case CallKind::ArraySetm: {
        AtomicTable t;
        t.kind = TableKind::Mem;
        t.mem.array = resolve_array(*c.args[0]);
        t.mem.kind = MemKind::Set;
        const ArrayInfo* ai = meta_.find_array(t.mem.array);
        t.mem.cell_width = ai ? ai->width : 32;
        t.mem.index = flatten(*c.args[1]);
        if (c.args.size() == 3) {
          t.mem.set_value = flatten(*c.args[2]);
        } else {
          t.mem.set_memop = c.args[2]->as<VarRefExpr>()->name;
          t.mem.set_arg = flatten(*c.args[3]);
        }
        append(std::move(t));
        return Operand::none();
      }
      case CallKind::ArrayUpdate: {
        AtomicTable t;
        t.kind = TableKind::Mem;
        t.mem.array = resolve_array(*c.args[0]);
        t.mem.kind = MemKind::Update;
        const ArrayInfo* ai = meta_.find_array(t.mem.array);
        t.mem.cell_width = ai ? ai->width : 32;
        t.mem.index = flatten(*c.args[1]);
        t.mem.get_memop = c.args[2]->as<VarRefExpr>()->name;
        t.mem.get_arg = flatten(*c.args[3]);
        t.mem.set_memop = c.args[4]->as<VarRefExpr>()->name;
        t.mem.set_arg = flatten(*c.args[5]);
        t.mem.dst = fresh_tmp(t.mem.cell_width);
        const std::string dst = t.mem.dst;
        const int w = t.mem.cell_width;
        append(std::move(t));
        return Operand::of_var(dst, w);
      }
      case CallKind::Hash: {
        AtomicTable t;
        t.kind = TableKind::Hash;
        const Operand seed = flatten(*c.args[0]);
        if (seed.is_const()) {
          t.hash.seed = seed.value;
        } else {
          diags_.error(c.args[0]->range, "ir-hash-seed",
                       "hash seeds must be compile-time constants (they "
                       "configure the hash unit)");
        }
        for (std::size_t i = 1; i < c.args.size(); ++i) {
          t.hash.args.push_back(flatten(*c.args[i]));
        }
        t.hash.dst = fresh_tmp(32);
        const std::string dst = t.hash.dst;
        append(std::move(t));
        return Operand::of_var(dst, 32);
      }
      case CallKind::SysTime: {
        // The ingress timestamp is pipeline metadata.
        return Operand::of_var("__ts", 32);
      }
      case CallKind::SysSelf:
        return Operand::of_var("__self", 32);
      case CallKind::UserFun:
        return inline_fun(c);
      case CallKind::EventCtor:
      case CallKind::EventDelay:
      case CallKind::EventLocate:
        diags_.error(c.range, "ir-event-context",
                     "event values may only be bound to event locals or "
                     "generated");
        return Operand::none();
      case CallKind::Unresolved:
        diags_.error(c.range, "ir-unresolved-call",
                     "internal: unresolved call reached lowering");
        return Operand::none();
    }
    return Operand::none();
  }

  // ---- function inlining ----------------------------------------------------

  Operand inline_fun(const CallExpr& c) {
    const FunDecl* f = prog_.find_fun(c.callee);
    if (f == nullptr) return Operand::none();
    const int frame = inline_counter_++;
    const std::string prefix = "__inl" + std::to_string(frame) + "_";

    // Bind arguments in the caller's frame, then install the callee frame.
    std::vector<std::pair<std::string, Operand>> bindings;
    for (std::size_t i = 0; i < f->params.size(); ++i) {
      const Param& p = f->params[i];
      if (p.type.kind == TypeKind::Array) {
        bindings.emplace_back(p.name,
                              Operand::of_var(resolve_array(*c.args[i])));
      } else {
        Operand arg = flatten(*c.args[i]);
        bindings.emplace_back(p.name, std::move(arg));
      }
    }

    const auto saved_sub = sub_;
    sub_.clear();
    for (auto& [name, op] : bindings) sub_[name] = std::move(op);

    std::string ret_var;
    if (f->return_type.kind != TypeKind::Void) {
      ret_var = prefix + "ret";
      var_width_[ret_var] = f->return_type.width;
    }
    inline_prefix_.push_back(prefix);
    lower_block(f->body, /*in_function=*/true, ret_var);
    inline_prefix_.pop_back();
    sub_ = saved_sub;

    if (ret_var.empty()) return Operand::none();
    return Operand::of_var(ret_var, f->return_type.width);
  }

  // ---- event values -----------------------------------------------------------

  GenStmt gen_value(const Expr& e) {
    if (e.kind == ExprKind::VarRef) {
      const auto it = event_vals_.find(e.as<VarRefExpr>()->name);
      if (it != event_vals_.end()) return it->second;
      diags_.error(e.range, "ir-unknown-event-local",
                   "event variable is not bound to an event value");
      return {};
    }
    const auto* c = e.as<CallExpr>();
    switch (c->resolved) {
      case CallKind::EventCtor: {
        GenStmt g;
        g.event = c->callee;
        const auto* ev = prog_.find_event(c->callee);
        g.event_id = ev ? ev->event_id : -1;
        for (const auto& a : c->args) g.args.push_back(flatten(*a));
        return g;
      }
      case CallKind::EventDelay: {
        GenStmt g = gen_value(*c->args[0]);
        g.delay = flatten(*c->args[1]);
        return g;
      }
      case CallKind::EventLocate: {
        GenStmt g = gen_value(*c->args[0]);
        const Expr& loc = *c->args[1];
        if (loc.kind == ExprKind::VarRef &&
            loc.as<VarRefExpr>()->is_group) {
          g.multicast = true;
          g.group = loc.as<VarRefExpr>()->name;
        } else {
          g.location = flatten(loc);
        }
        return g;
      }
      default:
        diags_.error(e.range, "ir-expected-event",
                     "expected an event value");
        return {};
    }
  }

  /// Snapshot variable operands so later mutations don't alter the bound
  /// event value.
  GenStmt snapshot(GenStmt g) {
    auto snap = [this](Operand& o) {
      if (!o.is_var()) return;
      AtomicTable t;
      t.kind = TableKind::Op;
      t.op.dst = fresh_tmp(o.width);
      t.op.width = o.width;
      t.op.lhs = o;
      const std::string dst = t.op.dst;
      append(std::move(t));
      o = Operand::of_var(dst, o.width);
    };
    for (auto& a : g.args) snap(a);
    snap(g.delay);
    snap(g.location);
    return g;
  }

  // ---- statements ---------------------------------------------------------------

  /// Peephole: if `value` is the fresh temporary written by the table just
  /// appended, rename that table's destination to `dst` instead of emitting
  /// a copy. Keeps assignments single-table.
  bool retarget_last(const Operand& value, const std::string& dst) {
    if (!value.is_var() || value.var.rfind("__t", 0) != 0) return false;
    if (graph_.tables.empty()) return false;
    if (cur_.size() != 1 || cur_[0].slot != -1) return false;
    AtomicTable& last = graph_.tables.back();
    if (cur_[0].id != last.id) return false;
    switch (last.kind) {
      case TableKind::Op:
        if (last.op.dst != value.var) return false;
        last.op.dst = dst;
        return true;
      case TableKind::Mem:
        if (last.mem.dst != value.var) return false;
        last.mem.dst = dst;
        return true;
      case TableKind::Hash:
        if (last.hash.dst != value.var) return false;
        last.hash.dst = dst;
        return true;
      default:
        return false;
    }
  }

  std::string framed(const std::string& name) const {
    return inline_prefix_.empty() ? name : inline_prefix_.back() + name;
  }

  void lower_block(const Block& b, bool in_function,
                   const std::string& ret_var) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      const Stmt& s = *b[i];
      if (s.kind == StmtKind::Return) {
        if (!in_function) {
          // Handler-level return: this control path terminates, so it must
          // not connect to any continuation after an enclosing if.
          if (i + 1 < b.size()) {
            diags_.error(s.range, "ir-return-not-tail",
                         "statements after return are unreachable");
          }
          cur_.clear();
          return;
        }
        if (i + 1 < b.size()) {
          diags_.error(s.range, "ir-return-not-tail",
                       "inlined functions support only tail returns");
        }
        const auto* r = s.as<ReturnStmt>();
        if (r->value && !ret_var.empty()) {
          const Operand v = flatten(*r->value);
          if (!retarget_last(v, ret_var)) {
            AtomicTable t;
            t.kind = TableKind::Op;
            t.op.dst = ret_var;
            t.op.width =
                var_width_.count(ret_var) ? var_width_[ret_var] : 32;
            t.op.lhs = v;
            append(std::move(t));
          }
        }
        return;
      }
      lower_stmt(s, in_function, ret_var);
    }
  }

  void lower_stmt(const Stmt& s, bool in_function,
                  const std::string& ret_var) {
    switch (s.kind) {
      case StmtKind::LocalDecl: {
        const auto* d = s.as<LocalDeclStmt>();
        if (d->declared_type.kind == TypeKind::Event) {
          event_vals_[d->name] = snapshot(gen_value(*d->init));
          return;
        }
        const Operand init = flatten(*d->init);
        const std::string name = framed(d->name);
        // Alias constants and compiler-generated single-definition values
        // ("__t..." temporaries, "__inl..." function results, "__self"/
        // "__ts" metadata) instead of copying, unless the local is
        // reassigned later.
        const bool aliasable =
            assigned_.count(d->name) == 0 &&
            (init.is_const() ||
             (init.is_var() && init.var.rfind("__", 0) == 0));
        if (aliasable) {
          sub_[d->name] = init;
          return;
        }
        var_width_[name] = d->declared_type.width;
        if (!retarget_last(init, name)) {
          AtomicTable t;
          t.kind = TableKind::Op;
          t.op.dst = name;
          t.op.width = d->declared_type.width;
          t.op.lhs = init;
          append(std::move(t));
        }
        sub_[d->name] = Operand::of_var(name, d->declared_type.width);
        return;
      }
      case StmtKind::Assign: {
        const auto* a = s.as<AssignStmt>();
        const Operand value = flatten(*a->value);
        const auto it = sub_.find(a->name);
        const std::string target =
            it != sub_.end() && it->second.is_var() ? it->second.var
                                                    : framed(a->name);
        if (!retarget_last(value, target)) {
          AtomicTable t;
          t.kind = TableKind::Op;
          t.op.dst = target;
          t.op.width = value.width;
          t.op.lhs = value;
          append(std::move(t));
        }
        sub_[a->name] = Operand::of_var(target, value.width);
        return;
      }
      case StmtKind::If: {
        const auto* i = s.as<IfStmt>();
        lower_if(*i, in_function, ret_var);
        return;
      }
      case StmtKind::ExprStmt:
        (void)flatten(*s.as<ExprStmt>()->expr);
        return;
      case StmtKind::Generate: {
        const auto* g = s.as<GenerateStmt>();
        GenStmt gen = gen_value(*g->event);
        if (g->multicast) gen.multicast = true;
        AtomicTable t;
        t.kind = TableKind::Generate;
        t.gen = std::move(gen);
        append(std::move(t));
        return;
      }
      case StmtKind::Return:
        // Handled in lower_block.
        return;
    }
  }

  /// Lowers a condition into branch structure with short-circuit semantics:
  /// `&&` / `||` / `!` become branch-table wiring rather than ALU predicate
  /// chains, so compound conditions cost match rules — not pipeline stages —
  /// after branch inlining (exactly the Fig 8 merged-rule structure).
  void lower_cond(const Expr& cond, std::vector<Exit>& true_exits,
                  std::vector<Exit>& false_exits) {
    if (cond.kind == ExprKind::Binary) {
      const auto* b = cond.as<BinaryExpr>();
      if (b->op == BinOp::LAnd) {
        std::vector<Exit> t1;
        std::vector<Exit> f1;
        lower_cond(*b->lhs, t1, f1);
        cur_ = t1;
        std::vector<Exit> t2;
        std::vector<Exit> f2;
        lower_cond(*b->rhs, t2, f2);
        true_exits = std::move(t2);
        false_exits = std::move(f1);
        false_exits.insert(false_exits.end(), f2.begin(), f2.end());
        return;
      }
      if (b->op == BinOp::LOr) {
        std::vector<Exit> t1;
        std::vector<Exit> f1;
        lower_cond(*b->lhs, t1, f1);
        cur_ = f1;
        std::vector<Exit> t2;
        std::vector<Exit> f2;
        lower_cond(*b->rhs, t2, f2);
        true_exits = std::move(t1);
        true_exits.insert(true_exits.end(), t2.begin(), t2.end());
        false_exits = std::move(f2);
        return;
      }
    }
    if (cond.kind == ExprKind::Unary &&
        cond.as<UnaryExpr>()->op == UnOp::Not) {
      lower_cond(*cond.as<UnaryExpr>()->sub, false_exits, true_exits);
      return;
    }

    // Leaf: a single branch table. ==/!= against a constant matches
    // directly; other comparisons compute a one-bit predicate first.
    AtomicTable bt;
    bt.kind = TableKind::Branch;
    bool direct = false;
    if (cond.kind == ExprKind::Binary) {
      const auto* b = cond.as<BinaryExpr>();
      if (b->op == BinOp::Eq || b->op == BinOp::Ne) {
        const Operand l = flatten(*b->lhs);
        const Operand r = flatten(*b->rhs);
        if (l.is_var() && r.is_const()) {
          bt.branch = BranchStmt{l, binop_to_cmp(b->op), r.value};
          direct = true;
        } else if (l.is_const() && r.is_var()) {
          bt.branch = BranchStmt{r, mirror_cmp(binop_to_cmp(b->op)), l.value};
          direct = true;
        } else if (l.is_var() && r.is_var()) {
          AtomicTable p;
          p.kind = TableKind::Op;
          p.op.dst = fresh_tmp(1);
          p.op.width = 1;
          p.op.lhs = l;
          p.op.op = b->op;
          p.op.rhs = r;
          const std::string pv = p.op.dst;
          append(std::move(p));
          bt.branch = BranchStmt{Operand::of_var(pv, 1), CmpOp::Ne, 0};
          direct = true;
        } else {
          bt.branch = BranchStmt{Operand::imm(l.value == r.value ? 1 : 0, 1),
                                 binop_to_cmp(b->op) == CmpOp::Eq ? CmpOp::Ne
                                                                  : CmpOp::Eq,
                                 0};
          direct = true;
        }
      } else if (binop_is_comparison(b->op)) {
        const Operand l = flatten(*b->lhs);
        const Operand r = flatten(*b->rhs);
        AtomicTable p;
        p.kind = TableKind::Op;
        p.op.dst = fresh_tmp(1);
        p.op.width = 1;
        p.op.lhs = l;
        p.op.op = b->op;
        p.op.rhs = r;
        const std::string pv = p.op.dst;
        append(std::move(p));
        bt.branch = BranchStmt{Operand::of_var(pv, 1), CmpOp::Ne, 0};
        direct = true;
      }
    }
    if (!direct) {
      const Operand p = flatten(cond);
      bt.branch = BranchStmt{p, CmpOp::Ne, 0};
    }
    const int bid = append(std::move(bt));
    true_exits = {Exit{bid, 0}};
    false_exits = {Exit{bid, 1}};
  }

  void lower_if(const IfStmt& i, bool in_function,
                const std::string& ret_var) {
    std::vector<Exit> true_exits;
    std::vector<Exit> false_exits;
    lower_cond(*i.cond, true_exits, false_exits);

    cur_ = true_exits;
    lower_block(i.then_block, in_function, ret_var);
    const std::vector<Exit> then_exits = cur_;
    cur_ = false_exits;
    lower_block(i.else_block, in_function, ret_var);
    std::vector<Exit> exits = cur_;
    exits.insert(exits.end(), then_exits.begin(), then_exits.end());
    cur_ = std::move(exits);
  }

  const Program& prog_;
  const ProgramIR& meta_;
  const std::map<std::string, std::int64_t>& consts_;
  DiagnosticEngine& diags_;

  HandlerGraph graph_;
  std::vector<Exit> cur_;
  std::map<std::string, Operand> sub_;
  std::map<std::string, GenStmt> event_vals_;
  std::map<std::string, int> var_width_;
  std::set<std::string> assigned_;
  std::vector<std::string> inline_prefix_;
  int tmp_counter_ = 0;
  int inline_counter_ = 0;
};

}  // namespace

ProgramIR lower(const Program& program, DiagnosticEngine& diags,
                const LowerReuse* reuse, std::size_t* reused_handlers) {
  ProgramIR ir;
  if (reused_handlers != nullptr) *reused_handlers = 0;

  std::map<std::string, std::int64_t> consts;
  for (const auto& d : program.decls) {
    if (d->kind == DeclKind::Const) {
      consts[d->name] = d->as<ConstDecl>()->resolved_value;
    }
  }

  for (const auto* g : program.globals()) {
    ArrayInfo info;
    info.name = g->name;
    info.width = g->width;
    info.size = g->resolved_size;
    info.decl_index = g->stage_index;
    ir.array_index[info.name] = static_cast<int>(ir.arrays.size());
    ir.arrays.push_back(std::move(info));
  }

  for (const auto* e : program.events()) {
    EventInfo info;
    info.name = e->name;
    info.event_id = e->event_id;
    for (const auto& p : e->params) {
      info.params.emplace_back(p.name, p.type.width);
    }
    info.has_handler = program.find_handler(e->name) != nullptr;
    ir.events.push_back(std::move(info));
  }

  for (const auto& d : program.decls) {
    if (d->kind == DeclKind::Memop) {
      MemopLowerer ml(*d->as<MemopDecl>(), consts);
      ir.memop_index[d->name] = static_cast<int>(ir.memops.size());
      ir.memops.push_back(ml.run());
    } else if (d->kind == DeclKind::Group) {
      const auto* g = d->as<GroupDecl>();
      ir.groups.push_back(GroupInfo{g->name, g->resolved_members});
    }
  }

  for (const auto* h : program.handlers()) {
    // Splice the previous compile's graph when the structural diff proved
    // this handler (and everything it references) unchanged. The graph is
    // copied, not aliased: the new IR owns its artifacts outright.
    if (reuse != nullptr && reuse->prev != nullptr &&
        reuse->handlers.count(h->name) != 0) {
      const HandlerGraph* prev_graph = nullptr;
      for (const HandlerGraph& g : reuse->prev->handlers) {
        if (g.handler == h->name) {
          prev_graph = &g;
          break;
        }
      }
      if (prev_graph != nullptr) {
        ir.handlers.push_back(*prev_graph);
        if (reused_handlers != nullptr) ++*reused_handlers;
        continue;
      }
    }
    HandlerBuilder builder(program, ir, consts, diags);
    ir.handlers.push_back(builder.build(*h));
  }
  return ir;
}

}  // namespace lucid::ir
