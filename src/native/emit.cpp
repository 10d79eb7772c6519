// Emits a native pipeline module: C++ text cut into per-handler units.
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
// Module shape (ABI v3, src/native/abi.hpp): a prelude — the ABI structs,
// lucid_mask, lucid_fnv1a_word and the version symbol, the same for every
// program but for its first comment line — then one unit per event that
// owns tables. A unit is a fixed marker line (kUnitMarker), a header line
// giving its event id and generate-site count, and one extern "C"
// lucid_event_<id> function with its own Ctx holding only that handler's
// locals and params. Nothing in a unit depends on another handler, so an
// edit to one handler changes that handler's unit text and no other; the
// JIT caches units by the hash of prelude + unit text and recompiles only
// the changed ones. split_units, below, is the one reader of this format.
//
// Every table belongs to exactly one handler (the eBPF emitter's
// table_condition starts with the event-id test), so a handler's function
// holds its tables in the (stage, table, member) order the layout placed
// them, and a packet runs the same statements in the same order as a
// stage-major walk with per-table event-id tests would. Each function zeroes
// a fresh Ctx, loads the params, and runs the tables; a generate table
// writes its GenOut record where it runs, so records leave in site order ==
// the order the interpreter's handler body reached each generate.
//
// Batch equivalence: the host (Module::run_batch_raw) runs packets in order,
// each straight through its handler's entry, so a batch is a sequence of
// single-packet calls and state equivalence is trivial. A stage-major walk
// over the batch (PISA's stage parallelism in software) would also preserve
// per-array access order — the layout pins every register array to one
// stage (opt::Pipeline::array_stage) and a packet makes at most one sALU
// visit per array per pass — but it round-trips every packet's Ctx through
// a scratch slab between stages, which measures slower at event-loop drain
// sizes.
//
// The module calls no library function and is linked -nostdlib
// (src/native/jit.cpp).
#include "native/emit.hpp"

#include <algorithm>
#include <cstdio>
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

/// Opens every unit; the line after it is the unit's header,
/// "// event <id> gens <n>: <name>". split_units is the only reader.
constexpr std::string_view kUnitMarker = "//@@ lucid native unit @@";

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
    prelude();
    units();
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

  /// One handler's Ctx fields: every variable its tables touch, its event's
  /// params, and the two builtins.
  static std::set<std::string> unit_vars(
      const ir::EventInfo& ev, const std::vector<const AtomicTable*>& tables) {
    std::set<std::string> vars;
    auto note = [&vars](const Operand& o) {
      if (o.is_var()) vars.insert(o.var);
    };
    for (const AtomicTable* t : tables) {
      switch (t->kind) {
        case TableKind::Op:
          vars.insert(t->op.dst);
          note(t->op.lhs);
          note(t->op.rhs);
          break;
        case TableKind::Mem:
          if (!t->mem.dst.empty()) vars.insert(t->mem.dst);
          note(t->mem.index);
          note(t->mem.get_arg);
          note(t->mem.set_arg);
          note(t->mem.set_value);
          break;
        case TableKind::Hash:
          vars.insert(t->hash.dst);
          for (const auto& a : t->hash.args) note(a);
          break;
        case TableKind::Generate:
          for (const auto& a : t->gen.args) note(a);
          note(t->gen.delay);
          note(t->gen.location);
          break;
        case TableKind::Branch:
          break;
      }
      for (const auto& conj : t->guards) {
        for (const auto& test : conj) vars.insert(test.var);
      }
    }
    for (const auto& [pname, pwidth] : ev.params) {
      (void)pwidth;
      vars.insert(pname);
    }
    vars.insert("__self");
    vars.insert("__ts");
    return vars;
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

  /// The program-independent head of every translation unit the JIT
  /// builds: types, the ABI structs, the two helpers, and the version
  /// symbol. Only its first comment line names the program.
  void prelude() {
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
    line("}  // namespace");
    blank();
    line("extern \"C\" u32 " + std::string(kSymAbiVersion) + "() { return " +
         std::to_string(kAbiVersion) + "; }");
    blank();
  }

  /// The guard disjunction of `t`, or "" when the table is unguarded. The
  /// event-id half of the eBPF emitter's table_condition is the host's
  /// dispatch table (Module::run_batch_raw): each table sits in its handler's
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

  /// One unit per event that owns tables: the marker line, the header the
  /// splitter parses, and one extern "C" function on a fresh zeroed Ctx
  /// holding only this handler's locals and params — the params masked to
  /// their declared widths (Runtime::execute), then the handler's tables in
  /// (stage, table, member) order. The function returns the number of
  /// GenOut records written.
  void units() {
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
      const auto gens = std::count_if(
          it->second.begin(), it->second.end(), [](const AtomicTable* t) {
            return t->kind == TableKind::Generate;
          });
      gen_sites_ += static_cast<int>(gens);
      const std::string id = std::to_string(ev.event_id);
      line(std::string(kUnitMarker));
      line("// event " + id + " gens " + std::to_string(gens) + ": " +
           ev.name);
      line("extern \"C\" i32 " + std::string(kSymEventPrefix) + id +
           "(i64* const* R, const PacketIn* pkt, GenOut* out) {");
      line("  // Handler locals + event params; zero-init per packet matches");
      line("  // interpreter Frame defaults. All fields are i64 (Value).");
      line("  struct Ctx {");
      for (const auto& name : unit_vars(ev, it->second)) {
        line("    i64 " + sanitize(name) + ";");
      }
      line("  };");
      line("  const PacketIn& in = *pkt;");
      line("  Ctx m{};");
      line("  m.__self = in.self_id;");
      line("  m.__ts = lucid_mask(in.now_ns, 32);");
      line("  i32 n = 0;");
      for (std::size_t i = 0; i < ev.params.size(); ++i) {
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

  const ir::ProgramIR& ir_;
  const opt::Pipeline& pipeline_;
  std::string_view name_;
  std::string out_;
  int loc_ = 0;
  int gen_sites_ = 0;
};

}  // namespace

std::optional<EnvelopeViolation> check_envelope(const Compilation& comp) {
  if (!comp.pipeline().feasible) {
    return EnvelopeViolation{"native-layout-infeasible",
                             "pipeline layout is infeasible; the native "
                             "engine cannot run it"};
  }
  if (const ir::EventInfo* ev = comp.ir().unfit_event()) {
    return EnvelopeViolation{
        "native-too-many-params",
        "event " + ev->name + " has " + std::to_string(ev->params.size()) +
            " params; the native ABI caps at " + std::to_string(kMaxArgs)};
  }
  return std::nullopt;
}

EmittedModule emit_source(const Compilation& comp,
                          std::string_view program_name) {
  Emitter e(comp.ir(), comp.pipeline(), program_name);
  return e.run();
}

ModuleUnits split_units(std::string_view text) {
  std::vector<std::size_t> starts;  // offsets of whole-line markers
  for (std::size_t pos = text.find(kUnitMarker); pos != std::string_view::npos;
       pos = text.find(kUnitMarker, pos + 1)) {
    const std::size_t end = pos + kUnitMarker.size();
    if ((pos == 0 || text[pos - 1] == '\n') &&
        (end == text.size() || text[end] == '\n')) {
      starts.push_back(pos);
    }
  }
  ModuleUnits split;
  split.prelude = text.substr(0, starts.empty() ? text.size() : starts[0]);
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::size_t next =
        k + 1 < starts.size() ? starts[k + 1] : text.size();
    ModuleUnit unit;
    unit.text = text.substr(starts[k], next - starts[k]);
    const std::size_t header = kUnitMarker.size() + 1;
    if (header < unit.text.size()) {
      const std::string line(unit.text.substr(
          header, unit.text.find('\n', header) - header));
      if (std::sscanf(line.c_str(), "// event %d gens %d", &unit.event_id,
                      &unit.gen_sites) != 2 ||
          unit.gen_sites < 0) {
        unit.event_id = -1;
      }
    }
    split.units.push_back(unit);
  }
  return split;
}

}  // namespace lucid::native
