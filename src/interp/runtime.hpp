// The Lucid interpreter: executes a type-checked program's handlers against
// a simulated PISA switch. The paper's artifact ships an interpreter for
// exactly this purpose ("rapid prototyping and testing of data-plane
// applications without requiring access to the Tofino toolchain",
// Appendix D) — here it is also the engine behind the timing experiments,
// because handler execution is coupled to the event scheduler and the
// ns-resolution simulator.
//
// Semantics: one handler execution == one atomic pipeline pass. The tree
// walker has the native module's shape and never calls its host: it reads a
// pisa::PacketIn (arguments, Sys.time(), SELF), runs against the Runtime's
// pisa::RegisterFile (the type native::Replica holds) and writes
// pisa::GenOut records, which the Runtime hands to the event scheduler in
// order after the handler. Injected events pass ir::ProgramIR::admit_event,
// the Replica's rule too. Memops apply in their canonicalized single-sALU
// form.
//
// The per-event hot path (inject → dispatch → handler body) uses dense-id
// and unordered lookups prebuilt at construction; the name-keyed RunStats
// view is materialized lazily from sched::RunCounters.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/driver.hpp"
#include "pisa/register_array.hpp"
#include "sched/scheduler.hpp"

namespace lucid::interp {

using Value = std::int64_t;

using sched::RunStats;

/// Deterministic 32-bit hash used by the `hash` builtin (stands in for the
/// Tofino's CRC hash units).
[[nodiscard]] std::uint32_t hash32(std::int64_t seed,
                                   const std::vector<Value>& args);

/// The arity rule (ir::ProgramIR::unfit_event) for the interpreter: false,
/// with an `interp-too-many-params` error on `comp`, when an event does not
/// fit the event record. Testbed and the interp backend check it.
bool check_arity(Compilation& comp);

class Runtime {
 public:
  /// Binds a compilation (Lower succeeded, check_arity holds) to a
  /// scheduler/switch: creates the register arrays and installs the handler
  /// executor. The Runtime shares ownership of the artifacts, so the
  /// CompilerDriver (and any Testbed that produced `comp`) may be destroyed
  /// while the Runtime keeps running.
  Runtime(ConstCompilationPtr comp, sched::EventScheduler& node);

  [[nodiscard]] const Compilation& compilation() const { return *comp_; }

  /// Injects an event by name (external arrival at this switch through a
  /// front-panel port). Returns false — and injects nothing — unless
  /// ir::ProgramIR::admit_event admits it (known event, matching arity);
  /// arguments are masked to their declared widths like `EventCtor` does.
  bool inject(const std::string& event, const std::vector<Value>& args,
              sim::Time delay_ns = 0, std::int64_t location = -1);

  /// Injects an event from the control plane (src/ctrl): the packet enters
  /// through the recirculation port (switch-CPU path), not the wire. Same
  /// validation as inject().
  bool inject_control(const std::string& event,
                      const std::vector<Value>& args, sim::Time delay_ns = 0);

  /// The register file, IR declaration order.
  [[nodiscard]] pisa::RegisterFile& registers() { return registers_; }
  /// The declared array `name`, nullptr when the program has none.
  [[nodiscard]] pisa::RegisterArray* array(const std::string& name) {
    const auto& index = comp_->ir().array_index;
    const auto it = index.find(name);
    return it == index.end() ? nullptr : register_at(it->second);
  }

  [[nodiscard]] const RunStats& stats() const;
  [[nodiscard]] sched::EventScheduler& node() { return node_; }

  /// Optional per-execution trace hook (event name, packet).
  void set_trace(
      std::function<void(const std::string&, const pisa::Packet&)> fn) {
    trace_ = std::move(fn);
  }

 private:
  /// An int, an event value or an array binding; cheap to copy, because
  /// every expression returns one. Events are values, as in the IR
  /// lowering: each combinator writes a changed copy of the record to the
  /// arena (`events_`), so `Event.delay(e, t)` leaves `e` as it was.
  struct Val {
    Value i = 0;
    std::int32_t ev = -1;   // events_ index; -1: not an event
    std::int32_t arr = -1;  // registers_ slot an Array parameter binds
    [[nodiscard]] bool is_event() const { return ev >= 0; }
  };

  /// Handler-execution locals: a flat vector beats any tree/hash map at the
  /// handful of names a handler binds. Keys are string_views into AST-owned
  /// strings (the Runtime co-owns the Compilation, so they stay valid).
  class Frame {
   public:
    [[nodiscard]] Val& slot(std::string_view name) {
      for (auto& s : slots_) {
        if (s.name == name) return s.v;
      }
      slots_.push_back(Slot{name, Val{}});
      return slots_.back().v;
    }
    [[nodiscard]] const Val* find(std::string_view name) const {
      for (const auto& s : slots_) {
        if (s.name == name) return &s.v;
      }
      return nullptr;
    }

   private:
    struct Slot {
      std::string_view name;
      Val v;
    };
    std::vector<Slot> slots_;
  };

  /// The scheduler's execute hook: `p`'s handler, then its generates.
  void execute(const pisa::Packet& p);
  /// The executor: handler `h` on `in` against registers_, its generates
  /// written to gens_.
  void run_handler(const frontend::HandlerDecl& h, const pisa::PacketIn& in);

  Val eval(Frame& frame, const frontend::Expr& e);
  Val eval_call(Frame& frame, const frontend::CallExpr& c);
  /// Returns true if the block executed a `return`; the value (if any) lands
  /// in `*ret`.
  bool exec_block(Frame& frame, const frontend::Block& b, Val* ret);
  bool exec_stmt(Frame& frame, const frontend::Stmt& s, Val* ret);

  /// The register slot an Array argument names (-1: none): a binding in
  /// `frame` first, as the lowering substitutes it, else a declared array.
  [[nodiscard]] std::int32_t array_arg(const Frame& frame,
                                       const frontend::Expr& e) const;
  [[nodiscard]] pisa::RegisterArray* register_at(std::int32_t slot) {
    return slot < 0 ? nullptr : &registers_[static_cast<std::size_t>(slot)];
  }
  /// A new event record in the arena; its Val.
  Val new_event(const pisa::GenOut& rec) {
    events_.push_back(rec);
    return Val{.ev = static_cast<std::int32_t>(events_.size() - 1)};
  }

  [[nodiscard]] Value memop_apply(const std::string& name, Value cell,
                                  Value arg) const;

  ConstCompilationPtr comp_;
  sched::EventScheduler& node_;
  pisa::RegisterFile registers_;
  std::function<void(const std::string&, const pisa::Packet&)> trace_;

  // Prebuilt hot-path lookups: dense by event id where an id exists,
  // unordered by name otherwise. The string_view keys point into AST/IR
  // strings owned via comp_.
  std::vector<const frontend::HandlerDecl*> handlers_by_id_;
  std::unordered_map<std::string_view, const frontend::EventDecl*>
      events_by_name_;
  std::unordered_map<std::string_view, const ir::MemopInfo*> memops_by_name_;
  std::unordered_map<std::string_view, const frontend::FunDecl*>
      funs_by_name_;
  std::unordered_map<std::string_view, std::int32_t> groups_by_name_;

  // The executing handler's input, output buffer and event-value arena.
  pisa::PacketIn in_;
  std::vector<pisa::GenOut> gens_;
  std::vector<pisa::GenOut> events_;

  sched::RunCounters counters_;
};

}  // namespace lucid::interp
