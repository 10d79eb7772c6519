// Intermediate representation: atomic table graphs (paper section 6.1).
//
// After sema, every handler is lowered (with function inlining and
// subexpression flattening) into a graph of *atomic tables*, each simple
// enough to execute with at most one Tofino ALU:
//
//   - operation tables   — one ALU op over two operands into a local;
//   - memory op tables   — one stateful-ALU visit to one register array;
//   - hash tables        — one hash-unit computation;
//   - generate tables    — write an event header (event id + args + combinator
//                          metadata) for the scheduler to serialize;
//   - branch tables      — compare a local against a constant to pick the
//                          next table (deleted by the branch-inlining pass).
//
// The optimizer (src/opt) consumes these graphs; the P4 backend (src/p4)
// renders the optimized layout.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "pisa/packet.hpp"
#include "support/diagnostics.hpp"

namespace lucid::ir {

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

struct Operand {
  enum class Kind { None, Var, Const };
  Kind kind = Kind::None;
  std::string var;        // metadata/local name
  std::int64_t value = 0; // constant value
  int width = 32;

  static Operand none() { return {}; }
  static Operand of_var(std::string name, int width = 32) {
    Operand o;
    o.kind = Kind::Var;
    o.var = std::move(name);
    o.width = width;
    return o;
  }
  static Operand imm(std::int64_t v, int width = 32) {
    Operand o;
    o.kind = Kind::Const;
    o.value = v;
    o.width = width;
    return o;
  }

  [[nodiscard]] bool is_var() const { return kind == Kind::Var; }
  [[nodiscard]] bool is_const() const { return kind == Kind::Const; }
  [[nodiscard]] bool is_none() const { return kind == Kind::None; }
  [[nodiscard]] std::string str() const {
    switch (kind) {
      case Kind::None: return "_";
      case Kind::Var: return var;
      case Kind::Const: return std::to_string(value);
    }
    return "?";
  }
};

// ---------------------------------------------------------------------------
// Table payloads
// ---------------------------------------------------------------------------

/// dst = lhs [op rhs]; copy when op is empty.
struct OpStmt {
  std::string dst;
  int width = 32;
  Operand lhs;
  std::optional<frontend::BinOp> op;
  Operand rhs;
};

enum class MemKind { Get, Set, Update };

/// One stateful-ALU visit. Identity memops are represented by empty names.
struct MemStmt {
  std::string array;
  Operand index;
  MemKind kind = MemKind::Get;
  std::string dst;       // result local for Get/Update ("" for Set)
  std::string get_memop; // "" = plain read
  Operand get_arg;
  std::string set_memop; // "" = plain write of set_value
  Operand set_arg;
  Operand set_value;
  int cell_width = 32;
};

struct HashStmt {
  std::string dst;
  std::int64_t seed = 0;
  std::vector<Operand> args;
  /// Output mask (2^n - 1): the hash unit emits exactly n bits, so
  /// `hash(...) & MASK` folds into the unit instead of costing an ALU op.
  std::int64_t mask = -1;
};

/// Event generation: the scheduler metadata written for one generated event.
struct GenStmt {
  std::string event;
  int event_id = -1;
  std::vector<Operand> args;
  Operand delay = Operand::imm(0);    // nanoseconds
  Operand location = Operand::none(); // none = SELF unicast
  bool multicast = false;
  std::string group;                  // group name when located at a group
};

enum class CmpOp { Eq, Ne, Lt, Gt, Le, Ge };
[[nodiscard]] std::string_view cmp_name(CmpOp op);

/// Branch table: subject <cmp> constant, successors next[0] (true) and
/// next[1] (false).
struct BranchStmt {
  Operand subject;
  CmpOp cmp = CmpOp::Eq;
  std::int64_t constant = 0;
};

enum class TableKind { Op, Mem, Hash, Generate, Branch };
[[nodiscard]] std::string_view table_kind_name(TableKind k);

/// One test in a match rule: var == value (eq) or var != value (ternary).
struct MatchTest {
  std::string var;
  bool eq = true;
  std::int64_t value = 0;
};
/// A conjunction of tests (one match rule).
using Conj = std::vector<MatchTest>;

struct AtomicTable {
  int id = -1;
  TableKind kind = TableKind::Op;
  std::string handler;

  OpStmt op;
  MemStmt mem;
  HashStmt hash;
  GenStmt gen;
  BranchStmt branch;

  /// Successor table ids. Branch: [true_succ, false_succ] (-1 = exit).
  /// Others: zero or one successor.
  std::vector<int> next;

  /// Filled by the branch-inlining pass: disjunction of conjunctions under
  /// which this table executes. Empty = unconditional.
  std::vector<Conj> guards;

  [[nodiscard]] std::vector<std::string> reads() const;
  [[nodiscard]] std::vector<std::string> writes() const;
  /// Locals read by the guards (for anti-dependency edges).
  [[nodiscard]] std::vector<std::string> guard_reads() const;
  [[nodiscard]] std::string str() const;
};

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

struct HandlerGraph {
  std::string handler;
  int event_id = -1;
  std::vector<AtomicTable> tables;  // id == index
  int entry = -1;                   // -1 when the handler body is empty

  /// Tables on the longest entry->exit path; this is the paper's
  /// "unoptimized stage count" (one atomic table per stage, Fig 12).
  [[nodiscard]] int longest_path() const;
  [[nodiscard]] std::string str() const;
};

struct ArrayInfo {
  std::string name;
  int width = 32;
  std::int64_t size = 0;
  int decl_index = 0;  // declaration order == effect stage index
};

struct EventInfo {
  std::string name;
  int event_id = -1;
  std::vector<std::pair<std::string, int>> params;  // (name, width)
  bool has_handler = false;
};

struct MemopInfo {
  std::string name;
  // Canonicalized body: optional condition + the two return expressions.
  bool has_condition = false;
  Operand cond_lhs;  // params are Var operands named "cell"/"arg"
  CmpOp cond_op = CmpOp::Eq;
  Operand cond_rhs;
  // return expression: ret_lhs [ret_op ret_rhs]
  Operand then_lhs;
  std::optional<frontend::BinOp> then_op;
  Operand then_rhs;
  Operand else_lhs;
  std::optional<frontend::BinOp> else_op;
  Operand else_rhs;
};

struct GroupInfo {
  std::string name;
  std::vector<std::int64_t> members;
};

/// The whole lowered program: per-handler atomic table graphs plus the
/// metadata the optimizer, backend, and runtime need.
struct ProgramIR {
  std::vector<HandlerGraph> handlers;
  std::vector<ArrayInfo> arrays;       // in declaration (stage) order
  std::vector<EventInfo> events;       // indexed by event id
  std::vector<MemopInfo> memops;
  std::vector<GroupInfo> groups;
  std::map<std::string, int> array_index;
  std::map<std::string, int> memop_index;

  [[nodiscard]] const ArrayInfo* find_array(std::string_view name) const;
  [[nodiscard]] const MemopInfo* find_memop(std::string_view name) const;
  [[nodiscard]] const EventInfo* find_event(std::string_view name) const;
  /// The arity rule: the first event with more params than an event record
  /// carries (pisa::kMaxArgs), nullptr when all fit. Every engine refuses a
  /// program that has one (native::check_envelope, interp::check_arity).
  [[nodiscard]] const EventInfo* unfit_event() const;
  /// Event admission, the one rule both engines apply to an event entering
  /// from outside a handler (an injection or a control-plane post): true
  /// when `name` is declared and `args` match its arity and fit the record,
  /// with `out`'s event id and arguments filled in, each masked to its
  /// parameter width like an event constructor.
  [[nodiscard]] bool admit_event(std::string_view name,
                                 std::span<const std::int64_t> args,
                                 pisa::Packet* out) const;
  /// The switches generate record `g` multicasts to: its group's members
  /// when it is a multicast located at a group, none otherwise.
  [[nodiscard]] std::span<const std::int64_t> members(
      const pisa::GenOut& g) const {
    if (g.multicast == 0 || g.group < 0) return {};
    return groups[static_cast<std::size_t>(g.group)].members;
  }
  [[nodiscard]] int max_handler_longest_path() const;
  /// The paper's "unoptimized stage count" (Fig 12 numerator): without
  /// branch inlining, reordering, or merging, every atomic table needs its
  /// own stage and handlers occupy disjoint stage ranges, so the longest
  /// code path through the unoptimized pipeline is the sum of the handlers'
  /// critical paths.
  [[nodiscard]] int total_longest_path() const;
};

/// Incremental-lowering inputs (CompilerDriver::recompile): the previous
/// compile's IR plus the handlers the structural diff proved unchanged.
/// Program-level metadata (arrays, events, memops, groups) is always
/// rebuilt from the annotated AST — it is cheap and keeps declaration-order
/// semantics native — while each reused handler's atomic table graph is
/// spliced from `prev` instead of re-lowered. Splicing is byte-exact:
/// HandlerBuilder's temp numbering is per-handler, so a spliced graph is
/// identical to what re-lowering the unchanged handler would produce.
struct LowerReuse {
  const ProgramIR* prev = nullptr;
  std::set<std::string> handlers;  // handler names safe to splice
};

/// Lowers a type-checked program (function inlining + flattening to atomic
/// tables). Reports unsupported constructs through `diags`. A non-null
/// `reuse` splices unchanged handlers' graphs from a previous IR (see
/// LowerReuse); `reused_handlers`, when non-null, receives the number of
/// graphs spliced.
[[nodiscard]] ProgramIR lower(const frontend::Program& program,
                              DiagnosticEngine& diags,
                              const LowerReuse* reuse,
                              std::size_t* reused_handlers = nullptr);
[[nodiscard]] inline ProgramIR lower(const frontend::Program& program,
                                     DiagnosticEngine& diags) {
  return lower(program, diags, nullptr);
}

}  // namespace lucid::ir
