// Emits a native pipeline module: one C++ translation unit per program.
//
// Semantics contract: generated code must leave register state byte-identical
// to interp::Runtime for any event sequence (the differential suite in
// tests/test_native.cpp enforces this on all ten paper apps). Every masking
// and evaluation rule below therefore names the interpreter rule it mirrors:
//
//   - all values are int64_t; locals zero-init per packet (Frame defaults);
//   - handler params mask to declared widths on entry (Runtime::execute);
//   - binary-op results mask to the expression width (eval/Binary), with
//     Div/Mod-by-zero yielding 0 and shifts masked to 6 bits (binop_eval);
//     add/sub/mul/shl run in uint64 so signed overflow stays wrap-around;
//   - memops evaluate in canonicalized single-sALU form; on Update both the
//     get- and set-memop read the pre-update cell, stores and memop'd reads
//     mask to the cell width, plain reads don't (eval_call/ArrayUpdate);
//   - array indexes wrap via `i % n; if (i < 0) i += n`
//     (pisa::RegisterArray::clamp);
//   - `hash` is the shared modeled FNV-1a (support/hash.hpp) — NOT the
//     eBPF backend's CRC32; the inline lucid_fnv1a_word below must stay in
//     lockstep with support::fnv1a_word;
//   - generated-event args mask to the event's param widths (EventCtor).
//
// Module shape (ABI v2, src/native/abi.hpp): one lucid_event_<id> function
// per event that owns tables, and lucid_native_run_batch dispatching each
// packet with one switch on its event id. Every table belongs to exactly one
// handler (the eBPF emitter's table_condition starts with the event-id test),
// so a handler's function holds its tables in the (stage, table, member)
// order the layout placed them, and a packet runs the same statements in the
// same order as a stage-major walk with per-table event-id tests would. Each
// function zeroes a fresh Ctx (locals + params), loads the params, and runs
// the tables; a generate table writes its GenOut record where it runs, so
// records leave in site order == the order the interpreter's handler body
// reached each generate.
//
// Batch equivalence: run_batch runs packets in order, each straight through
// its handler, so a one-packet batch is the single-packet call
// (Module::run_one) and state equivalence is trivial. A stage-major walk
// over the batch (PISA's stage parallelism in software) would also preserve
// per-array access order — the layout pins every register array to one stage
// (opt::Pipeline::array_stage) and a packet makes at most one sALU visit per
// array per pass — but it round-trips every packet's Ctx through a scratch
// slab between stages, which measures slower at event-loop drain sizes.
//
// The module calls no library function and is linked -nostdlib
// (src/native/jit.cpp).
#include "native/emit.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "native/abi.hpp"
#include "opt/passes.hpp"

namespace lucid::native {

namespace {

using ir::AtomicTable;
using ir::MemKind;
using ir::Operand;
using ir::TableKind;

std::string sanitize(std::string name) {
  for (auto& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

std::string ctx_ref(const std::string& var) { return "m." + sanitize(var); }

std::string operand_str(const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::None: return "0";
    case Operand::Kind::Var: return ctx_ref(o.var);
    case Operand::Kind::Const:
      return "i64{" + std::to_string(o.value) + "}";
  }
  return "0";
}

/// Wraps `expr` in the width mask when the width actually clips (the
/// generated lucid_mask would pass it through anyway; skip the call).
std::string masked(const std::string& expr, int width) {
  if (width >= 64 || width <= 0) return expr;
  return "lucid_mask(" + expr + ", " + std::to_string(width) + ")";
}

/// The interp-exact C++ expression for `l <op> r` (binop_eval): unsigned
/// wrap-around for add/sub/mul/shl, guarded div/mod, 6-bit shift counts,
/// logical shift right, 0/1 comparisons.
std::string binop_expr(frontend::BinOp op, const std::string& l,
                       const std::string& r) {
  using frontend::BinOp;
  auto wrap = [&](const char* c_op) {
    return "(i64)((u64)(" + l + ") " + c_op + " (u64)(" + r + "))";
  };
  auto guarded = [&](const char* c_op) {
    return "((" + r + ") == 0 ? 0 : (" + l + ") " + c_op + " (" + r + "))";
  };
  auto cmp = [&](const char* c_op) {
    return "((" + l + ") " + c_op + " (" + r + ") ? 1 : 0)";
  };
  switch (op) {
    case BinOp::Add: return wrap("+");
    case BinOp::Sub: return wrap("-");
    case BinOp::Mul: return wrap("*");
    case BinOp::Div: return guarded("/");
    case BinOp::Mod: return guarded("%");
    case BinOp::BitAnd: return "((" + l + ") & (" + r + "))";
    case BinOp::BitOr: return "((" + l + ") | (" + r + "))";
    case BinOp::BitXor: return "((" + l + ") ^ (" + r + "))";
    case BinOp::Shl:
      return "(i64)((u64)(" + l + ") << ((" + r + ") & 63))";
    case BinOp::Shr:
      return "(i64)((u64)(" + l + ") >> ((" + r + ") & 63))";
    case BinOp::Eq: return cmp("==");
    case BinOp::Ne: return cmp("!=");
    case BinOp::Lt: return cmp("<");
    case BinOp::Gt: return cmp(">");
    case BinOp::Le: return cmp("<=");
    case BinOp::Ge: return cmp(">=");
    case BinOp::LAnd:
      return "(((" + l + ") != 0 && (" + r + ") != 0) ? 1 : 0)";
    case BinOp::LOr:
      return "(((" + l + ") != 0 || (" + r + ") != 0) ? 1 : 0)";
  }
  return "0";
}

std::string cmp_str(ir::CmpOp op) {
  switch (op) {
    case ir::CmpOp::Eq: return "==";
    case ir::CmpOp::Ne: return "!=";
    case ir::CmpOp::Lt: return "<";
    case ir::CmpOp::Gt: return ">";
    case ir::CmpOp::Le: return "<=";
    case ir::CmpOp::Ge: return ">=";
  }
  return "==";
}

/// Memop operand: the canonical "cell" parameter resolves to the single-read
/// cell value, anything else to the call-site argument.
std::string memop_operand(const Operand& o, const Operand& call_arg,
                          const std::string& cell_name) {
  if (o.is_const()) return "i64{" + std::to_string(o.value) + "}";
  if (o.var == "cell") return cell_name;
  return operand_str(call_arg);
}

std::string memop_expr(const Operand& lhs,
                       const std::optional<frontend::BinOp>& op,
                       const Operand& rhs, const Operand& call_arg,
                       const std::string& cell_name) {
  std::string l = memop_operand(lhs, call_arg, cell_name);
  if (!op) return l;
  return binop_expr(*op, l, memop_operand(rhs, call_arg, cell_name));
}

class Emitter {
 public:
  Emitter(const ir::ProgramIR& ir, const opt::Pipeline& pipeline,
          std::string_view name)
      : ir_(ir), pipeline_(pipeline), name_(name) {}

  EmittedModule run() {
    collect_vars();
    preamble();
    ctx_struct();
    event_fns();
    entry_points();
    EmittedModule m;
    m.text = std::move(out_);
    m.gen_sites = gen_sites_;
    m.stages = static_cast<int>(pipeline_.stages.size());
    m.loc = loc_;
    return m;
  }

 private:
  void line(const std::string& s) {
    out_ += s;
    out_ += '\n';
    ++loc_;
  }
  void blank() { out_ += '\n'; }

  // ---- variable collection (same walk as the eBPF emitter) ----------------

  void note_var(const Operand& o) {
    if (o.is_var()) vars_.insert(o.var);
  }

  void collect_vars() {
    for (const auto& stage : pipeline_.stages) {
      for (const auto& mt : stage.tables) {
        for (const auto* member : mt.members) {
          const AtomicTable& t = *member;
          switch (t.kind) {
            case TableKind::Op:
              vars_.insert(t.op.dst);
              note_var(t.op.lhs);
              note_var(t.op.rhs);
              break;
            case TableKind::Mem:
              if (!t.mem.dst.empty()) vars_.insert(t.mem.dst);
              note_var(t.mem.index);
              note_var(t.mem.get_arg);
              note_var(t.mem.set_arg);
              note_var(t.mem.set_value);
              break;
            case TableKind::Hash:
              vars_.insert(t.hash.dst);
              for (const auto& a : t.hash.args) note_var(a);
              break;
            case TableKind::Generate:
              ++gen_sites_;
              for (const auto& a : t.gen.args) note_var(a);
              note_var(t.gen.delay);
              note_var(t.gen.location);
              break;
            case TableKind::Branch:
              break;
          }
          for (const auto& conj : t.guards) {
            for (const auto& test : conj) vars_.insert(test.var);
          }
        }
      }
    }
    for (const auto& ev : ir_.events) {
      for (const auto& [pname, pwidth] : ev.params) {
        (void)pwidth;
        vars_.insert(pname);
      }
    }
    vars_.insert("__self");
    vars_.insert("__ts");
  }

  int array_slot(const std::string& name) const {
    const auto it = ir_.array_index.find(name);
    return it == ir_.array_index.end() ? -1 : it->second;
  }

  int group_slot(const std::string& name) const {
    for (std::size_t i = 0; i < ir_.groups.size(); ++i) {
      if (ir_.groups[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  // ---- sections -----------------------------------------------------------

  void preamble() {
    line("// " + std::string(name_) +
         " — generated by the Lucid compiler (native backend)");
    line("// Self-contained: compiled by the in-process JIT "
         "(src/native/jit.cpp) and dlopen'd.");
    line("// Semantics mirror interp::Runtime exactly; see "
         "src/native/emit.cpp for the contract.");
    line("#include <cstdint>");
    blank();
    line("using i32 = std::int32_t;");
    line("using u32 = std::uint32_t;");
    line("using i64 = std::int64_t;");
    line("using u64 = std::uint64_t;");
    blank();
    line("namespace {");
    blank();
    line("// ABI structs — textual mirror of src/native/abi.hpp (v" +
         std::to_string(kAbiVersion) + ").");
    line("constexpr i32 kMaxArgs = " + std::to_string(kMaxArgs) + ";");
    line("struct PacketIn { i32 event_id; i32 nargs; i64 now_ns; "
         "i64 self_id; i64 args[kMaxArgs]; };");
    line("struct GenOut { i32 event_id; i32 multicast; i32 group; "
         "i32 nargs; i64 delay_ns; i64 location; i64 args[kMaxArgs]; };");
    line("static_assert(sizeof(PacketIn) == " +
         std::to_string(sizeof(PacketIn)) + ", \"ABI drift\");");
    line("static_assert(sizeof(GenOut) == " +
         std::to_string(sizeof(GenOut)) + ", \"ABI drift\");");
    blank();
    line("// support::mask_width, inlined.");
    line("inline i64 lucid_mask(i64 v, int w) {");
    line("  if (w >= 64 || w <= 0) return v;");
    line("  return (i64)((u64)v & ((u64{1} << w) - 1));");
    line("}");
    blank();
    line("// support::fnv1a_word, inlined (the shared modeled hash; the");
    line("// eBPF backend's CRC32 is a deliberate divergence).");
    line("inline u32 lucid_fnv1a_word(u32 h, i64 word) {");
    line("  u64 w = (u64)word;");
    line("  for (int i = 0; i < 8; ++i) {");
    line("    h ^= (u32)(w & 0xff);");
    line("    h *= 16777619u;");
    line("    w >>= 8;");
    line("  }");
    line("  return h;");
    line("}");
    blank();
  }

  void ctx_struct() {
    line("// Handler locals + event params; zero-init per packet matches");
    line("// interpreter Frame defaults. All fields are i64 (Value).");
    line("struct Ctx {");
    for (const auto& name : vars_) {
      line("  i64 " + sanitize(name) + ";");
    }
    line("};");
    blank();
  }

  /// The guard disjunction of `t`, or "" when the table is unguarded. The
  /// event-id half of the eBPF emitter's table_condition is the dispatch
  /// switch in lucid_native_run_batch: each table sits in its handler's
  /// lucid_event_<id> function.
  std::string table_condition(const AtomicTable& t) const {
    std::string dis;
    for (std::size_t c = 0; c < t.guards.size(); ++c) {
      if (c > 0) dis += " || ";
      std::string conj;
      for (std::size_t i = 0; i < t.guards[c].size(); ++i) {
        if (i > 0) conj += " && ";
        const ir::MatchTest& test = t.guards[c][i];
        conj += ctx_ref(test.var) + (test.eq ? " == " : " != ") +
                std::to_string(test.value);
      }
      if (t.guards[c].empty()) conj = "1";
      dis += t.guards.size() > 1 ? "(" + conj + ")" : conj;
    }
    return dis;
  }

  void emit_memop_assign(const std::string& indent, const std::string& dst,
                         const ir::MemopInfo* mo, const Operand& call_arg,
                         const std::string& cell_name, int mask_w) {
    if (mo == nullptr) return;
    auto rhs = [&](const Operand& lhs,
                   const std::optional<frontend::BinOp>& op,
                   const Operand& r) {
      return masked(memop_expr(lhs, op, r, call_arg, cell_name), mask_w);
    };
    if (mo->has_condition) {
      line(indent + "if (" +
           memop_operand(mo->cond_lhs, call_arg, cell_name) + " " +
           cmp_str(mo->cond_op) + " " +
           memop_operand(mo->cond_rhs, call_arg, cell_name) + ")");
      line(indent + "  " + dst + " = " +
           rhs(mo->then_lhs, mo->then_op, mo->then_rhs) + ";");
      line(indent + "else");
      line(indent + "  " + dst + " = " +
           rhs(mo->else_lhs, mo->else_op, mo->else_rhs) + ";");
    } else {
      line(indent + dst + " = " +
           rhs(mo->then_lhs, mo->then_op, mo->then_rhs) + ";");
    }
  }

  void emit_mem(const AtomicTable& t, const std::string& indent) {
    const ir::ArrayInfo* arr = ir_.find_array(t.mem.array);
    const int cw = arr ? arr->width : 32;
    const auto n = arr ? arr->size : 1;
    const int slot = array_slot(t.mem.array);
    const ir::MemopInfo* getm =
        t.mem.get_memop.empty() ? nullptr : ir_.find_memop(t.mem.get_memop);
    const ir::MemopInfo* setm =
        t.mem.set_memop.empty() ? nullptr : ir_.find_memop(t.mem.set_memop);

    line(indent + "{");
    const std::string in = indent + "  ";
    // RegisterArray::clamp: wrap, then fix the sign.
    line(in + "i64 ci = (" + operand_str(t.mem.index) + ") % " +
         std::to_string(n) + ";");
    line(in + "if (ci < 0) ci += " + std::to_string(n) + ";");
    line(in + "i64* cellp = R[" + std::to_string(slot) + "] + ci;  // " +
         t.mem.array);
    switch (t.mem.kind) {
      case MemKind::Get:
        line(in + "const i64 cell = *cellp;  // single read");
        if (getm == nullptr) {
          // Plain read: stored cells are already in range, no mask.
          line(in + ctx_ref(t.mem.dst) + " = cell;");
        } else {
          // Memop'd read masks to the cell width (arr->mask).
          emit_memop_assign(in, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell", cw);
        }
        break;
      case MemKind::Set:
        if (setm == nullptr) {
          line(in + "*cellp = " + masked(operand_str(t.mem.set_value), cw) +
               ";  // single write");
        } else {
          line(in + "const i64 cell = *cellp;  // single read");
          emit_memop_assign(in, "*cellp", setm, t.mem.set_arg, "cell", cw);
        }
        break;
      case MemKind::Update:
        // Parallel get+set: both memops read the pre-update cell
        // (eval_call/ArrayUpdate), so compute the result before the store.
        line(in + "const i64 cell = *cellp;  // single read");
        if (t.mem.dst.empty()) {
          // update with discarded result
        } else if (getm != nullptr) {
          emit_memop_assign(in, ctx_ref(t.mem.dst), getm, t.mem.get_arg,
                            "cell", cw);
        } else {
          line(in + ctx_ref(t.mem.dst) + " = cell;");
        }
        emit_memop_assign(in, "*cellp", setm, t.mem.set_arg, "cell", cw);
        break;
    }
    line(indent + "}");
  }

  void emit_table(const AtomicTable& t, const std::string& indent) {
    switch (t.kind) {
      case TableKind::Op: {
        const bool cmp =
            t.op.op && (frontend::binop_is_comparison(*t.op.op) ||
                        frontend::binop_is_logical(*t.op.op));
        std::string rhs;
        if (t.op.op) {
          rhs = binop_expr(*t.op.op, operand_str(t.op.lhs),
                           operand_str(t.op.rhs));
        } else {
          rhs = operand_str(t.op.lhs);
        }
        // Comparisons yield 0/1 unmasked; everything else masks to the
        // expression width (eval/Binary + LocalDecl).
        if (!cmp) rhs = masked(rhs, t.op.width);
        line(indent + ctx_ref(t.op.dst) + " = " + rhs + ";");
        break;
      }
      case TableKind::Mem:
        emit_mem(t, indent);
        break;
      case TableKind::Hash: {
        // support::model_hash32 with the fold-in output mask (HashStmt).
        line(indent + "{");
        line(indent + "  u32 h = 2166136261u ^ ((u32)(i64{" +
             std::to_string(t.hash.seed) + "}) * 0x9E3779B1u);");
        for (const auto& a : t.hash.args) {
          line(indent + "  h = lucid_fnv1a_word(h, " + operand_str(a) +
               ");");
        }
        std::string result = "(i64)h";
        if (t.hash.mask >= 0) {
          result = "(i64)(h & (u32)" + std::to_string(t.hash.mask) + "u)";
        }
        line(indent + "  " + ctx_ref(t.hash.dst) + " = " + result + ";");
        line(indent + "}");
        break;
      }
      case TableKind::Generate: {
        // The record is written where the generate runs. A handler's tables
        // run in site (placement) order, so records leave in the order the
        // interpreter's handler body reached each generate. Args mask to
        // the event's param widths (EventCtor).
        const auto& ev =
            ir_.events[static_cast<std::size_t>(t.gen.event_id)];
        const std::size_t nargs =
            std::min(t.gen.args.size(), ev.params.size());
        line(indent + "{");
        line(indent + "  GenOut& g = out[n++];  // " + ev.name);
        line(indent + "  g.event_id = " + std::to_string(t.gen.event_id) +
             ";");
        line(indent + "  g.multicast = " + (t.gen.multicast ? "1" : "0") +
             ";");
        line(indent + "  g.group = " +
             std::to_string(t.gen.group.empty() ? -1
                                                : group_slot(t.gen.group)) +
             ";");
        line(indent + "  g.nargs = " + std::to_string(nargs) + ";");
        line(indent + "  g.delay_ns = " + operand_str(t.gen.delay) + ";");
        line(indent + "  g.location = " +
             (t.gen.location.is_none() ? "-1"
                                       : operand_str(t.gen.location)) +
             ";");
        for (std::size_t i = 0; i < nargs; ++i) {
          line(indent + "  g.args[" + std::to_string(i) + "] = " +
               masked(operand_str(t.gen.args[i]), ev.params[i].second) +
               ";");
        }
        line(indent + "}");
        break;
      }
      case TableKind::Branch:
        // Dissolved by branch inlining; nothing to lower.
        break;
    }
  }

  /// One function per event that owns tables, on a fresh zeroed Ctx: the
  /// params masked to their declared widths (Runtime::execute), then the
  /// handler's tables in (stage, table, member) order. Returns the number
  /// of GenOut records written.
  void event_fns() {
    std::map<std::string, std::vector<const AtomicTable*>> by_handler;
    for (const auto& stage : pipeline_.stages) {
      for (const auto& mt : stage.tables) {
        for (const auto* t : mt.members) {
          if (t->kind != TableKind::Branch) by_handler[t->handler].push_back(t);
        }
      }
    }
    for (const auto& ev : ir_.events) {
      const auto it = by_handler.find(ev.name);
      if (it == by_handler.end()) continue;
      events_.push_back(&ev);
      line("inline i32 lucid_event_" + std::to_string(ev.event_id) +
           "(i64* const* R, const PacketIn& in, GenOut* out) {  // " +
           ev.name);
      line("  Ctx m{};");
      line("  m.__self = in.self_id;");
      line("  m.__ts = lucid_mask(in.now_ns, 32);");
      line("  i32 n = 0;");
      const std::size_t nargs =
          std::min<std::size_t>(ev.params.size(), kMaxArgs);
      for (std::size_t i = 0; i < nargs; ++i) {
        line("  " + ctx_ref(ev.params[i].first) + " = " +
             masked("in.args[" + std::to_string(i) + "]",
                    ev.params[i].second) +
             ";");
      }
      for (const AtomicTable* t : it->second) {
        const std::string cond = table_condition(*t);
        const std::string kind(ir::table_kind_name(t->kind));
        if (cond.empty()) {
          line("  // " + kind);
          emit_table(*t, "  ");
        } else {
          line("  if (" + cond + ") {  // " + kind);
          emit_table(*t, "    ");
          line("  }");
        }
      }
      line("  return n;");
      line("}");
      blank();
    }
  }

  void entry_points() {
    line("}  // namespace");
    blank();
    line("extern \"C\" u32 lucid_native_abi_version() { return " +
         std::to_string(kAbiVersion) + "; }");
    line("extern \"C\" i32 lucid_native_max_gens() { return " +
         std::to_string(gen_sites_) + "; }");
    blank();
    line("// Packets run in order, each straight through its handler; see");
    line("// src/native/emit.cpp for why not stage-major.");
    line("extern \"C\" void lucid_native_run_batch(i64* const* R, "
         "const PacketIn* in, i32 n, GenOut* out, i32* gen_counts) {");
    line("  for (i32 i = 0; i < n; ++i) {");
    line("    GenOut* o = out + (i64)i * " +
         std::to_string(std::max(gen_sites_, 1)) + ";");
    line("    switch (in[i].event_id) {");
    for (const ir::EventInfo* ev : events_) {
      const std::string id = std::to_string(ev->event_id);
      line("      case " + id + ": gen_counts[i] = lucid_event_" + id +
           "(R, in[i], o); break;");
    }
    line("      default: gen_counts[i] = 0; break;");
    line("    }");
    line("  }");
    line("}");
  }

  const ir::ProgramIR& ir_;
  const opt::Pipeline& pipeline_;
  std::string_view name_;
  std::string out_;
  int loc_ = 0;
  std::set<std::string> vars_;
  int gen_sites_ = 0;
  std::vector<const ir::EventInfo*> events_;  // those with a lucid_event_ fn
};

}  // namespace

EmittedModule emit_source(const Compilation& comp,
                          std::string_view program_name) {
  Emitter e(comp.ir(), comp.pipeline(), program_name);
  return e.run();
}

}  // namespace lucid::native
