#include "interp/runtime.hpp"

#include "obs/trace.hpp"
#include "support/bits.hpp"
#include "support/hash.hpp"

namespace lucid::interp {

using namespace frontend;

std::uint32_t hash32(std::int64_t seed, const std::vector<Value>& args) {
  // The shared modeled hash (support/hash.hpp) — one definition across the
  // interpreter and the native engine so differential state tests hold.
  return support::model_hash32(seed, args);
}

namespace {

using support::mask_width;

Value memop_operand_value(const ir::Operand& o, Value cell, Value arg) {
  if (o.is_const()) return o.value;
  if (o.var == "cell") return cell;
  return arg;
}

bool cmp_eval(ir::CmpOp op, Value l, Value r) {
  switch (op) {
    case ir::CmpOp::Eq: return l == r;
    case ir::CmpOp::Ne: return l != r;
    case ir::CmpOp::Lt: return l < r;
    case ir::CmpOp::Gt: return l > r;
    case ir::CmpOp::Le: return l <= r;
    case ir::CmpOp::Ge: return l >= r;
  }
  return false;
}

Value binop_eval(BinOp op, Value l, Value r) {
  switch (op) {
    case BinOp::Add: return l + r;
    case BinOp::Sub: return l - r;
    case BinOp::Mul: return l * r;
    case BinOp::Div: return r == 0 ? 0 : l / r;
    case BinOp::Mod: return r == 0 ? 0 : l % r;
    case BinOp::BitAnd: return l & r;
    case BinOp::BitOr: return l | r;
    case BinOp::BitXor: return l ^ r;
    case BinOp::Shl: return l << (r & 63);
    case BinOp::Shr:
      return static_cast<Value>(static_cast<std::uint64_t>(l) >> (r & 63));
    case BinOp::Eq: return l == r ? 1 : 0;
    case BinOp::Ne: return l != r ? 1 : 0;
    case BinOp::Lt: return l < r ? 1 : 0;
    case BinOp::Gt: return l > r ? 1 : 0;
    case BinOp::Le: return l <= r ? 1 : 0;
    case BinOp::Ge: return l >= r ? 1 : 0;
    case BinOp::LAnd: return (l != 0 && r != 0) ? 1 : 0;
    case BinOp::LOr: return (l != 0 || r != 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace

Runtime::Runtime(ConstCompilationPtr comp, sched::EventScheduler& node)
    : comp_(std::move(comp)),
      node_(node),
      registers_(pisa::make_register_file(comp_->ir().arrays)),
      counters_(comp_->ir().events.size()) {
  // Prebuild every per-event lookup the hot path needs: handlers dense by
  // event id, everything else hashed by name.
  handlers_by_id_.assign(comp_->ir().events.size(), nullptr);
  for (const auto& d : comp_->ast().decls) {
    if (d->kind == DeclKind::Handler) {
      const auto* ev = comp_->ast().find_event(d->name);
      if (ev != nullptr && ev->event_id >= 0 &&
          static_cast<std::size_t>(ev->event_id) < handlers_by_id_.size()) {
        handlers_by_id_[static_cast<std::size_t>(ev->event_id)] =
            d->as<HandlerDecl>();
      }
    } else if (d->kind == DeclKind::Event) {
      events_by_name_.emplace(d->name, d->as<EventDecl>());
    } else if (d->kind == DeclKind::Fun) {
      funs_by_name_.emplace(d->name, d->as<FunDecl>());
    }
  }
  for (const auto& mo : comp_->ir().memops) {
    memops_by_name_.emplace(mo.name, &mo);
  }
  node_.set_execute([this](const pisa::Packet& p) { execute(p); });
}

bool Runtime::inject(const std::string& event, std::vector<Value> args,
                     sim::Time delay_ns, std::int64_t location) {
  const ir::EventInfo* ev = comp_->ir().admit_event(event, args);
  if (ev == nullptr) return false;
  node_.inject({.event_id = ev->event_id,
                .args = std::move(args),
                .delay_ns = delay_ns,
                .location = location});
  return true;
}

bool Runtime::inject_control(const std::string& event,
                             std::vector<Value> args, sim::Time delay_ns) {
  const ir::EventInfo* ev = comp_->ir().admit_event(event, args);
  if (ev == nullptr) return false;
  node_.inject_control({.event_id = ev->event_id,
                        .args = std::move(args),
                        .delay_ns = delay_ns});
  return true;
}

const RunStats& Runtime::stats() const {
  return counters_.stats(comp_->ir().events);
}

Value Runtime::memop_apply(const std::string& name, Value cell,
                           Value arg) const {
  if (name.empty()) return arg;  // identity write
  const auto it = memops_by_name_.find(std::string_view(name));
  if (it == memops_by_name_.end()) return arg;
  const ir::MemopInfo* mo = it->second;
  const bool take_then =
      !mo->has_condition ||
      cmp_eval(mo->cond_op, memop_operand_value(mo->cond_lhs, cell, arg),
               memop_operand_value(mo->cond_rhs, cell, arg));
  const ir::Operand& lhs = take_then ? mo->then_lhs : mo->else_lhs;
  const auto& op = take_then ? mo->then_op : mo->else_op;
  const ir::Operand& rhs = take_then ? mo->then_rhs : mo->else_rhs;
  Value out = memop_operand_value(lhs, cell, arg);
  if (op) out = binop_eval(*op, out, memop_operand_value(rhs, cell, arg));
  return out;
}

pisa::RegisterArray* Runtime::resolve_array(const std::string& name) {
  std::string actual = name;
  // Follow (possibly nested) function-parameter aliases.
  for (int depth = 0; depth < 8; ++depth) {
    const auto it = array_alias_.find(actual);
    if (it == array_alias_.end()) break;
    actual = it->second;
  }
  return array(actual);
}

void Runtime::execute(const pisa::Packet& p) {
  const HandlerDecl* h_ptr =
      p.event_id >= 0 &&
              static_cast<std::size_t>(p.event_id) < handlers_by_id_.size()
          ? handlers_by_id_[static_cast<std::size_t>(p.event_id)]
          : nullptr;
  if (h_ptr == nullptr) return;
  const HandlerDecl& h = *h_ptr;
  counters_.executed(static_cast<std::size_t>(p.event_id));
  if (trace_) trace_(h.name, p);
  // Sampled span around handler execution (one relaxed load when tracing is
  // off). The span only reads the wall clock and writes the tracer's own
  // rings — no effect on register state or event order (tests/test_obs.cpp).
  obs::ScopedSpan span("interp", h.name);

  Frame frame;
  for (std::size_t i = 0; i < h.params.size(); ++i) {
    Val v;
    v.i = i < p.args.size()
              ? mask_width(p.args[i], h.params[i].type.width)
              : 0;
    frame.slot(h.params[i].name) = std::move(v);
  }
  Val ret;
  (void)exec_block(frame, h.body, &ret);
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

bool Runtime::exec_block(Frame& frame, const Block& b, Val* ret) {
  for (const auto& s : b) {
    if (exec_stmt(frame, *s, ret)) return true;
  }
  return false;
}

bool Runtime::exec_stmt(Frame& frame, const Stmt& s, Val* ret) {
  switch (s.kind) {
    case StmtKind::LocalDecl: {
      const auto* d = s.as<LocalDeclStmt>();
      Val v = eval(frame, *d->init);
      if (!v.is_event() && d->declared_type.is_int()) {
        v.i = mask_width(v.i, d->declared_type.width);
      }
      frame.slot(d->name) = std::move(v);
      return false;
    }
    case StmtKind::Assign: {
      const auto* a = s.as<AssignStmt>();
      Val v = eval(frame, *a->value);
      frame.slot(a->name) = std::move(v);
      return false;
    }
    case StmtKind::If: {
      const auto* i = s.as<IfStmt>();
      const Val c = eval(frame, *i->cond);
      return exec_block(frame, c.i != 0 ? i->then_block : i->else_block,
                        ret);
    }
    case StmtKind::ExprStmt:
      (void)eval(frame, *s.as<ExprStmt>()->expr);
      return false;
    case StmtKind::Generate: {
      const auto* g = s.as<GenerateStmt>();
      const Val v = eval(frame, *g->event);
      if (!v.is_event()) return false;
      sched::GenEvent ev = *v.ev;
      ev.multicast = ev.multicast || g->multicast;
      counters_.generated(ev.event_id);
      node_.generate(std::move(ev));
      return false;
    }
    case StmtKind::Return:
      if (const auto* r = s.as<ReturnStmt>(); r->value && ret) {
        *ret = eval(frame, *r->value);
      }
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Runtime::Val Runtime::eval(Frame& frame, const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit: {
      Val v;
      v.i = static_cast<Value>(e.as<IntLitExpr>()->value);
      return v;
    }
    case ExprKind::BoolLit: {
      Val v;
      v.i = e.as<BoolLitExpr>()->value ? 1 : 0;
      return v;
    }
    case ExprKind::VarRef: {
      const auto* r = e.as<VarRefExpr>();
      Val v;
      if (r->is_const) {
        v.i = r->const_value;
        return v;
      }
      if (r->name == "SELF") {
        v.i = node_.self();
        return v;
      }
      if (const Val* found = frame.find(r->name)) return *found;
      return v;
    }
    case ExprKind::Unary: {
      const auto* u = e.as<UnaryExpr>();
      Val s = eval(frame, *u->sub);
      switch (u->op) {
        case UnOp::Neg: s.i = -s.i; break;
        case UnOp::BitNot:
          s.i = mask_width(~s.i, e.type.width);
          break;
        case UnOp::Not: s.i = s.i == 0 ? 1 : 0; break;
      }
      return s;
    }
    case ExprKind::Binary: {
      const auto* b = e.as<BinaryExpr>();
      // Short-circuit for logical operators.
      if (b->op == BinOp::LAnd) {
        Val l = eval(frame, *b->lhs);
        if (l.i == 0) return l;
        return eval(frame, *b->rhs);
      }
      if (b->op == BinOp::LOr) {
        Val l = eval(frame, *b->lhs);
        if (l.i != 0) return l;
        return eval(frame, *b->rhs);
      }
      const Val l = eval(frame, *b->lhs);
      const Val r = eval(frame, *b->rhs);
      Val out;
      out.i = binop_eval(b->op, l.i, r.i);
      if (e.type.is_int()) out.i = mask_width(out.i, e.type.width);
      return out;
    }
    case ExprKind::Call:
      return eval_call(frame, *e.as<CallExpr>());
  }
  return {};
}

Runtime::Val Runtime::eval_call(Frame& frame, const CallExpr& c) {
  auto int_arg = [&](std::size_t i) { return eval(frame, *c.args[i]).i; };

  switch (c.resolved) {
    case CallKind::ArrayGet:
    case CallKind::ArrayGetm: {
      const auto& arr_name = c.args[0]->as<VarRefExpr>()->name;
      pisa::RegisterArray* arr = resolve_array(arr_name);
      Val out;
      if (arr == nullptr) return out;
      const Value idx = int_arg(1);
      const Value cell = arr->get(idx);
      if (c.args.size() == 4) {
        out.i = arr->mask(memop_apply(c.args[2]->as<VarRefExpr>()->name,
                                      cell, int_arg(3)));
      } else {
        out.i = cell;
      }
      return out;
    }
    case CallKind::ArraySet:
    case CallKind::ArraySetm: {
      const auto& arr_name = c.args[0]->as<VarRefExpr>()->name;
      pisa::RegisterArray* arr = resolve_array(arr_name);
      if (arr == nullptr) return {};
      const Value idx = int_arg(1);
      if (c.args.size() == 3) {
        arr->set(idx, int_arg(2));
      } else {
        const Value cell = arr->get(idx);
        arr->set(idx, memop_apply(c.args[2]->as<VarRefExpr>()->name, cell,
                                  int_arg(3)));
      }
      return {};
    }
    case CallKind::ArrayUpdate: {
      const auto& arr_name = c.args[0]->as<VarRefExpr>()->name;
      pisa::RegisterArray* arr = resolve_array(arr_name);
      Val out;
      if (arr == nullptr) return out;
      const Value idx = int_arg(1);
      const Value old = arr->get(idx);
      const Value garg = int_arg(3);
      const Value sarg = int_arg(5);
      out.i = arr->mask(
          memop_apply(c.args[2]->as<VarRefExpr>()->name, old, garg));
      arr->set(idx, memop_apply(c.args[4]->as<VarRefExpr>()->name, old,
                                sarg));
      return out;
    }
    case CallKind::Hash: {
      std::vector<Value> args;
      for (std::size_t i = 1; i < c.args.size(); ++i) {
        args.push_back(int_arg(i));
      }
      Val out;
      out.i = static_cast<Value>(hash32(int_arg(0), args));
      return out;
    }
    case CallKind::SysTime: {
      Val out;
      out.i = mask_width(node_.node().sim().now(), 32);
      return out;
    }
    case CallKind::SysSelf: {
      Val out;
      out.i = node_.self();
      return out;
    }
    case CallKind::UserFun: {
      const auto fit = funs_by_name_.find(std::string_view(c.callee));
      if (fit == funs_by_name_.end()) return {};
      const FunDecl* f = fit->second;
      Frame inner;
      for (std::size_t i = 0; i < f->params.size() && i < c.args.size();
           ++i) {
        if (f->params[i].type.kind == TypeKind::Array) {
          // Array parameters are passed by name: rebind via an event-free
          // Val holding nothing; Array ops resolve through the argument's
          // VarRef name directly. To support helpers, substitute textually:
          // store the referenced array name in the frame.
          Val v;
          v.i = 0;
          inner.slot(f->params[i].name) = std::move(v);
          array_alias_[f->params[i].name] =
              c.args[i]->as<VarRefExpr>()->name;
        } else {
          Val v = eval(frame, *c.args[i]);
          if (f->params[i].type.is_int()) {
            v.i = mask_width(v.i, f->params[i].type.width);
          }
          inner.slot(f->params[i].name) = std::move(v);
        }
      }
      Val ret;
      (void)exec_block(inner, f->body, &ret);
      for (const auto& p : f->params) {
        if (p.type.kind == TypeKind::Array) array_alias_.erase(p.name);
      }
      return ret;
    }
    case CallKind::EventCtor: {
      Val out;
      out.ev = std::make_shared<sched::GenEvent>();
      const auto eit = events_by_name_.find(std::string_view(c.callee));
      const EventDecl* ev =
          eit == events_by_name_.end() ? nullptr : eit->second;
      out.ev->event_id = ev ? ev->event_id : -1;
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        Value a = int_arg(i);
        if (ev && i < ev->params.size()) {
          a = mask_width(a, ev->params[i].type.width);
        }
        out.ev->args.push_back(a);
      }
      return out;
    }
    case CallKind::EventDelay: {
      Val inner = eval(frame, *c.args[0]);
      if (inner.is_event()) inner.own_event().delay_ns = int_arg(1);
      return inner;
    }
    case CallKind::EventLocate: {
      Val inner = eval(frame, *c.args[0]);
      if (!inner.is_event()) return inner;
      const Expr& loc = *c.args[1];
      sched::GenEvent& ev = inner.own_event();
      if (loc.kind == ExprKind::VarRef && loc.as<VarRefExpr>()->is_group) {
        ev.multicast = true;
        for (const auto& g : comp_->ir().groups) {
          if (g.name == loc.as<VarRefExpr>()->name) ev.members = g.members;
        }
      } else {
        ev.location = eval(frame, loc).i;
      }
      return inner;
    }
    case CallKind::Unresolved:
      return {};
  }
  return {};
}

}  // namespace lucid::interp
