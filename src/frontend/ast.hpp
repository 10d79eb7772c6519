// Abstract syntax tree for the Lucid dialect.
//
// Nodes follow the LLVM style: a base class with a kind tag plus derived
// structs, and `as<T>()` helpers for checked downcasts. Sema fills in the
// annotation fields (types, resolved call kinds, constant values, stage
// effects) in place, so later stages can consume a single annotated tree.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/source_location.hpp"

namespace lucid::frontend {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

enum class TypeKind {
  Unknown,
  Void,
  Bool,
  Int,    // int<<w>>; plain `int` is int<<32>>
  Event,  // a constructed event value
  Group,  // a multicast group
  Array,  // Array<<w>> global
};

struct Type {
  TypeKind kind = TypeKind::Unknown;
  int width = 32;  // meaningful for Int and Array

  static Type unknown() { return {TypeKind::Unknown, 0}; }
  static Type void_ty() { return {TypeKind::Void, 0}; }
  static Type bool_ty() { return {TypeKind::Bool, 1}; }
  static Type int_ty(int w = 32) { return {TypeKind::Int, w}; }
  static Type event_ty() { return {TypeKind::Event, 0}; }
  static Type group_ty() { return {TypeKind::Group, 0}; }
  static Type array_ty(int w) { return {TypeKind::Array, w}; }

  [[nodiscard]] bool is_int() const { return kind == TypeKind::Int; }
  [[nodiscard]] bool is_bool() const { return kind == TypeKind::Bool; }
  [[nodiscard]] bool is_event() const { return kind == TypeKind::Event; }

  [[nodiscard]] std::string str() const;

  friend bool operator==(const Type& a, const Type& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == TypeKind::Int || a.kind == TypeKind::Array) {
      return a.width == b.width;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  BoolLit,
  VarRef,
  Unary,
  Binary,
  Call,
};

enum class UnOp { Neg, Not, BitNot };
enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  BitAnd, BitOr, BitXor, Shl, Shr,
  Eq, Ne, Lt, Gt, Le, Ge,
  LAnd, LOr,
};

[[nodiscard]] std::string_view binop_name(BinOp op);
[[nodiscard]] std::string_view unop_name(UnOp op);
[[nodiscard]] bool binop_is_comparison(BinOp op);
[[nodiscard]] bool binop_is_logical(BinOp op);

/// How a CallExpr was resolved by sema.
enum class CallKind {
  Unresolved,
  UserFun,      // call to a `fun`
  EventCtor,    // event value construction: evname(args)
  ArrayGet,     // Array.get(arr, idx [, memop, arg])
  ArrayGetm,    // Array.getm — explicit read-memop spelling
  ArraySet,     // Array.set(arr, idx, val) or (arr, idx, memop, arg)
  ArraySetm,    // Array.setm — explicit write-memop spelling
  ArrayUpdate,  // Array.update(arr, idx, getm, garg, setm, sarg)
  EventDelay,   // Event.delay(ev, time)
  EventLocate,  // Event.locate(ev, loc) — loc is a switch id or group
  Hash,         // hash(seed, args...) -> int
  SysTime,      // Sys.time() -> int (ns, truncated)
  SysSelf,      // Sys.self() -> int switch id
};

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind;
  SrcRange range;
  // Sema annotations.
  Type type = Type::unknown();

  template <typename T>
  [[nodiscard]] T* as() {
    assert(T::class_kind == kind);
    return static_cast<T*>(this);
  }
  template <typename T>
  [[nodiscard]] const T* as() const {
    assert(T::class_kind == kind);
    return static_cast<const T*>(this);
  }
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::IntLit;
  IntLitExpr() : Expr(class_kind) {}
  std::uint64_t value = 0;
  bool is_time = false;  // literal had a time suffix; value is nanoseconds
};

struct BoolLitExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::BoolLit;
  BoolLitExpr() : Expr(class_kind) {}
  bool value = false;
};

/// A reference to a local variable, parameter, `const`, `global`, `group`,
/// or (as an Array-method argument) a memop by name.
struct VarRefExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::VarRef;
  VarRefExpr() : Expr(class_kind) {}
  std::string name;
  // Sema annotations:
  bool is_const = false;               // resolved to a `const` (or literal)
  std::int64_t const_value = 0;        // valid when is_const
  bool is_global_array = false;        // resolved to a `global` array
  bool is_group = false;               // resolved to a `group`
  bool is_memop_ref = false;           // names a memop (Array-call argument)
};

struct UnaryExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::Unary;
  UnaryExpr() : Expr(class_kind) {}
  UnOp op = UnOp::Neg;
  ExprPtr sub;
};

struct BinaryExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::Binary;
  BinaryExpr() : Expr(class_kind) {}
  BinOp op = BinOp::Add;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// Any call-shaped expression: user functions, event constructors, Array
/// methods, Event combinators, and builtins. `callee` keeps the dotted
/// spelling (e.g. "Array.get"); sema resolves `resolved`.
struct CallExpr final : Expr {
  static constexpr ExprKind class_kind = ExprKind::Call;
  CallExpr() : Expr(class_kind) {}
  std::string callee;
  std::vector<ExprPtr> args;
  CallKind resolved = CallKind::Unresolved;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  LocalDecl,
  Assign,
  If,
  ExprStmt,
  Generate,
  Return,
};

struct Stmt {
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  StmtKind kind;
  SrcRange range;

  template <typename T>
  [[nodiscard]] T* as() {
    assert(T::class_kind == kind);
    return static_cast<T*>(this);
  }
  template <typename T>
  [[nodiscard]] const T* as() const {
    assert(T::class_kind == kind);
    return static_cast<const T*>(this);
  }
};

using StmtPtr = std::unique_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

struct LocalDeclStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::LocalDecl;
  LocalDeclStmt() : Stmt(class_kind) {}
  Type declared_type;
  std::string name;
  ExprPtr init;
};

struct AssignStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::Assign;
  AssignStmt() : Stmt(class_kind) {}
  std::string name;
  ExprPtr value;
};

struct IfStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::If;
  IfStmt() : Stmt(class_kind) {}
  ExprPtr cond;
  Block then_block;
  Block else_block;  // may be empty
};

struct ExprStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::ExprStmt;
  ExprStmt() : Stmt(class_kind) {}
  ExprPtr expr;
};

/// `generate e;` schedules an event for execution; `mgenerate e;` schedules a
/// multicast event (the paper's `mgenerate` with a group-located event).
struct GenerateStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::Generate;
  GenerateStmt() : Stmt(class_kind) {}
  bool multicast = false;
  ExprPtr event;
};

struct ReturnStmt final : Stmt {
  static constexpr StmtKind class_kind = StmtKind::Return;
  ReturnStmt() : Stmt(class_kind) {}
  ExprPtr value;  // null for `return;`
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

enum class DeclKind {
  Const,
  Global,
  Memop,
  Fun,
  Event,
  Handler,
  Group,
};

struct Param {
  Type type;
  std::string name;
  SrcRange range;
};

struct Decl {
  explicit Decl(DeclKind k) : kind(k) {}
  virtual ~Decl() = default;
  Decl(const Decl&) = delete;
  Decl& operator=(const Decl&) = delete;

  DeclKind kind;
  SrcRange range;
  std::string name;

  template <typename T>
  [[nodiscard]] T* as() {
    assert(T::class_kind == kind);
    return static_cast<T*>(this);
  }
  template <typename T>
  [[nodiscard]] const T* as() const {
    assert(T::class_kind == kind);
    return static_cast<const T*>(this);
  }
};

// Decls are shared so the incremental parser can splice unchanged nodes from
// the previous compilation's Program by pointer — O(1) per clean decl. The
// recompile pipeline re-parses any spliced decl the dirty set will
// re-annotate (frontend::parse_span), so shared nodes are never mutated while
// two compilations can both reach them.
using DeclPtr = std::shared_ptr<Decl>;

struct ConstDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Const;
  ConstDecl() : Decl(class_kind) {}
  Type declared_type;
  ExprPtr value;
  // Sema annotation:
  std::int64_t resolved_value = 0;
};

/// `global name = new Array<<width>>(size);`
/// Declaration order defines the pipeline-stage specification that the
/// ordered type system checks against (paper section 5.1).
struct GlobalDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Global;
  GlobalDecl() : Decl(class_kind) {}
  int width = 32;
  ExprPtr size;
  // Sema annotations:
  std::int64_t resolved_size = 0;
  int stage_index = -1;  // position in declaration order
};

/// Memops are parsed as ordinary function bodies; the sema-stage memop
/// validator enforces the single-ALU syntactic restrictions.
struct MemopDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Memop;
  MemopDecl() : Decl(class_kind) {}
  std::vector<Param> params;
  Block body;
};

struct FunDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Fun;
  FunDecl() : Decl(class_kind) {}
  Type return_type;
  std::vector<Param> params;
  Block body;
};

struct EventDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Event;
  EventDecl() : Decl(class_kind) {}
  std::vector<Param> params;
  // Sema annotation: dense id used for wire headers and dispatch.
  int event_id = -1;
};

struct HandlerDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Handler;
  HandlerDecl() : Decl(class_kind) {}
  std::vector<Param> params;
  Block body;
};

/// `const group NAME = {1, 2, 3};`
struct GroupDecl final : Decl {
  static constexpr DeclKind class_kind = DeclKind::Group;
  GroupDecl() : Decl(class_kind) {}
  std::vector<ExprPtr> members;
  // Sema annotation:
  std::vector<std::int64_t> resolved_members;
};

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

struct Program {
  std::vector<DeclPtr> decls;

  [[nodiscard]] const Decl* find(std::string_view name, DeclKind kind) const;
  [[nodiscard]] Decl* find(std::string_view name, DeclKind kind);

  [[nodiscard]] const EventDecl* find_event(std::string_view name) const;
  [[nodiscard]] const HandlerDecl* find_handler(std::string_view name) const;
  [[nodiscard]] const MemopDecl* find_memop(std::string_view name) const;
  [[nodiscard]] const FunDecl* find_fun(std::string_view name) const;
  [[nodiscard]] const GlobalDecl* find_global(std::string_view name) const;
  [[nodiscard]] const GroupDecl* find_group(std::string_view name) const;

  /// Globals in declaration order (the stage specification).
  [[nodiscard]] std::vector<const GlobalDecl*> globals() const;
  [[nodiscard]] std::vector<const EventDecl*> events() const;
  [[nodiscard]] std::vector<const HandlerDecl*> handlers() const;
};

// Annotation mirroring: copy every sema annotation (expression types,
// resolved call kinds, VarRef resolution flags, const/size/id resolutions)
// from one tree onto a structurally identical one, in lockstep. This is how
// the incremental recompile pipeline re-annotates a freshly parsed decl that
// the structural diff proved unchanged, without re-running sema on its body.
// Returns false (leaving the target partially annotated) on any structural
// mismatch — callers treat that as "re-check the decl from scratch".
[[nodiscard]] bool copy_annotations(const Expr& from, Expr& to);
[[nodiscard]] bool copy_annotations(const Stmt& from, Stmt& to);
[[nodiscard]] bool copy_annotations(const Block& from, Block& to);
[[nodiscard]] bool copy_annotations(const Decl& from, Decl& to);

}  // namespace lucid::frontend
