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

bool check_arity(Compilation& comp) {
  const ir::EventInfo* ev = comp.ir().unfit_event();
  if (ev == nullptr) return true;
  comp.diags().error({}, "interp-too-many-params",
                     "event " + ev->name + " has " +
                         std::to_string(ev->params.size()) +
                         " params; an event packet carries at most " +
                         std::to_string(pisa::kMaxArgs));
  return false;
}

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
  const auto& groups = comp_->ir().groups;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups_by_name_.emplace(groups[g].name, static_cast<std::int32_t>(g));
  }
  node_.set_execute([this](const pisa::Packet& p) { execute(p); });
}

bool Runtime::inject(const std::string& event, const std::vector<Value>& args,
                     sim::Time delay_ns, std::int64_t location) {
  pisa::Packet p;
  if (!comp_->ir().admit_event(event, args, &p)) return false;
  p.location = location;
  node_.inject(p, delay_ns);
  return true;
}

bool Runtime::inject_control(const std::string& event,
                             const std::vector<Value>& args,
                             sim::Time delay_ns) {
  pisa::Packet p;
  if (!comp_->ir().admit_event(event, args, &p)) return false;
  node_.inject_control(p, delay_ns);
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

std::int32_t Runtime::array_arg(const Frame& frame, const Expr& e) const {
  const std::string& name = e.as<VarRefExpr>()->name;
  const Val* bound = frame.find(name);
  if (bound != nullptr && bound->arr >= 0) return bound->arr;
  const auto it = comp_->ir().array_index.find(name);
  return it == comp_->ir().array_index.end() ? -1 : it->second;
}

void Runtime::execute(const pisa::Packet& p) {
  const HandlerDecl* h =
      p.event_id >= 0 &&
              static_cast<std::size_t>(p.event_id) < handlers_by_id_.size()
          ? handlers_by_id_[static_cast<std::size_t>(p.event_id)]
          : nullptr;
  if (h == nullptr) return;
  counters_.executed(static_cast<std::size_t>(p.event_id));
  if (trace_) trace_(h->name, p);
  // Sampled span around handler execution (one relaxed load when tracing is
  // off). The span only reads the wall clock and writes the tracer's own
  // rings — no effect on register state or event order (tests/test_obs.cpp).
  obs::ScopedSpan span("interp", h->name);
  run_handler(*h, pisa::packet_in(p, node_.node().sim().now(), node_.self()));
  // The generates leave after the handler, in the order it wrote them.
  // Nothing touches the simulator during a handler, so this allocates the
  // same seq order as dispatching each at its generate statement.
  for (const pisa::GenOut& g : gens_) {
    node_.generate(g, comp_->ir().members(g), counters_);
  }
}

void Runtime::run_handler(const HandlerDecl& h, const pisa::PacketIn& in) {
  in_ = in;
  gens_.clear();
  events_.clear();
  Frame frame;
  for (std::size_t i = 0; i < h.params.size(); ++i) {
    Val v;
    v.i = static_cast<std::int32_t>(i) < in.nargs
              ? mask_width(in.args[i], h.params[i].type.width)
              : 0;
    frame.slot(h.params[i].name) = v;
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
      frame.slot(d->name) = v;
      return false;
    }
    case StmtKind::Assign: {
      // C++17 evaluates the right operand first: eval runs before slot.
      const auto* a = s.as<AssignStmt>();
      frame.slot(a->name) = eval(frame, *a->value);
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
      gens_.push_back(events_[static_cast<std::size_t>(v.ev)]);
      if (g->multicast) gens_.back().multicast = 1;
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
    case ExprKind::IntLit:
      return Val{.i = static_cast<Value>(e.as<IntLitExpr>()->value)};
    case ExprKind::BoolLit:
      return Val{.i = e.as<BoolLitExpr>()->value ? 1 : 0};
    case ExprKind::VarRef: {
      const auto* r = e.as<VarRefExpr>();
      if (r->is_const) return Val{.i = r->const_value};
      if (r->name == "SELF") return Val{.i = in_.self_id};
      if (const Val* found = frame.find(r->name)) return *found;
      return {};
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
      const Value out = binop_eval(b->op, l.i, r.i);
      return Val{.i = e.type.is_int() ? mask_width(out, e.type.width) : out};
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
      pisa::RegisterArray* arr = register_at(array_arg(frame, *c.args[0]));
      if (arr == nullptr) return {};
      const Value cell = arr->get(int_arg(1));
      if (c.args.size() != 4) return Val{.i = cell};
      return Val{.i = arr->mask(memop_apply(
                     c.args[2]->as<VarRefExpr>()->name, cell, int_arg(3)))};
    }
    case CallKind::ArraySet:
    case CallKind::ArraySetm: {
      pisa::RegisterArray* arr = register_at(array_arg(frame, *c.args[0]));
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
      pisa::RegisterArray* arr = register_at(array_arg(frame, *c.args[0]));
      if (arr == nullptr) return {};
      const Value idx = int_arg(1);
      const Value old = arr->get(idx);
      const Value garg = int_arg(3);
      const Value sarg = int_arg(5);
      const Value got = arr->mask(
          memop_apply(c.args[2]->as<VarRefExpr>()->name, old, garg));
      arr->set(idx, memop_apply(c.args[4]->as<VarRefExpr>()->name, old,
                                sarg));
      return Val{.i = got};
    }
    case CallKind::Hash: {
      std::vector<Value> args;
      for (std::size_t i = 1; i < c.args.size(); ++i) {
        args.push_back(int_arg(i));
      }
      return Val{.i = static_cast<Value>(hash32(int_arg(0), args))};
    }
    case CallKind::SysTime:
      return Val{.i = mask_width(in_.now_ns, 32)};
    case CallKind::SysSelf:
      return Val{.i = in_.self_id};
    case CallKind::UserFun: {
      const auto fit = funs_by_name_.find(std::string_view(c.callee));
      if (fit == funs_by_name_.end()) return {};
      const FunDecl* f = fit->second;
      Frame inner;
      for (std::size_t i = 0; i < f->params.size() && i < c.args.size();
           ++i) {
        Val v;
        if (f->params[i].type.kind == TypeKind::Array) {
          // Binds the caller's array, through the caller's own bindings.
          v.arr = array_arg(frame, *c.args[i]);
        } else {
          v = eval(frame, *c.args[i]);
          if (f->params[i].type.is_int()) {
            v.i = mask_width(v.i, f->params[i].type.width);
          }
        }
        inner.slot(f->params[i].name) = v;
      }
      Val ret;
      (void)exec_block(inner, f->body, &ret);
      return ret;
    }
    case CallKind::EventCtor: {
      const auto eit = events_by_name_.find(std::string_view(c.callee));
      const EventDecl* ev =
          eit == events_by_name_.end() ? nullptr : eit->second;
      pisa::GenOut rec;
      rec.event_id = ev ? ev->event_id : -1;
      // The arity rule (check_arity) keeps every argument within the record.
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        Value a = int_arg(i);
        if (ev && i < ev->params.size()) {
          a = mask_width(a, ev->params[i].type.width);
        }
        if (i < static_cast<std::size_t>(pisa::kMaxArgs)) rec.args[i] = a;
      }
      rec.nargs = static_cast<std::int32_t>(
          std::min<std::size_t>(c.args.size(), pisa::kMaxArgs));
      return new_event(rec);
    }
    case CallKind::EventDelay: {
      const Val inner = eval(frame, *c.args[0]);
      if (!inner.is_event()) return inner;
      pisa::GenOut rec = events_[static_cast<std::size_t>(inner.ev)];
      rec.delay_ns = int_arg(1);
      return new_event(rec);
    }
    case CallKind::EventLocate: {
      const Val inner = eval(frame, *c.args[0]);
      if (!inner.is_event()) return inner;
      pisa::GenOut rec = events_[static_cast<std::size_t>(inner.ev)];
      const Expr& loc = *c.args[1];
      if (loc.kind == ExprKind::VarRef && loc.as<VarRefExpr>()->is_group) {
        rec.multicast = 1;
        const auto git =
            groups_by_name_.find(std::string_view(loc.as<VarRefExpr>()->name));
        if (git != groups_by_name_.end()) rec.group = git->second;
      } else {
        rec.location = eval(frame, loc).i;
      }
      return new_event(rec);
    }
    case CallKind::Unresolved:
      return {};
  }
  return {};
}

}  // namespace lucid::interp
