// The Lucid compiler's pipeline-layout optimizer (paper section 6.2).
//
// ---------------------------------------------------------------------------
// Two-phase architecture
// ---------------------------------------------------------------------------
//
// Layout is split into two phases with a hard API boundary, so that resource-
// model sweeps (src/core/sweep.hpp) pay the model-independent work once per
// source instead of once per variant:
//
// *Phase A — `LayoutAnalysis` (analyze_layout)*: everything that is a pure
// function of the IR and does not depend on the `ResourceModel`:
//
//  1. *Branch inlining*: every non-branch table learns the path conditions
//     under which it executes, expressed as static match rules
//     (disjunctions of var==const / var!=const conjunctions); branch tables
//     are then deleted (Fig 6(2)).
//  2. *Rearranging tables*: tables are re-ordered by real data flow — RAW,
//     WAR, and WAW dependencies over locals (including guard reads), the
//     declaration-order chain between stateful tables, and generate-order —
//     so independent tables can share a stage (Fig 6(3)).
//
// plus the derived structures the greedy merger consults in its inner loops:
// an interned symbol table (handler/array names -> dense ids, so the merger
// never touches std::string keys or std::map lookups), the globally sorted
// item order (so restarts never rebuild or re-sort it), a memoized pairwise
// table-disjointness matrix, per-item dependency lists in global item ids,
// and the converged model-independent array stage lower bounds. Analysis
// diagnostics (e.g. "opt-guard-blowup") are stored on the artifact and
// replayed into every consuming compilation, so a compile that shares the
// analysis produces an identical diagnostic transcript to a cold one.
//
// *Phase B — the greedy merger (layout)*: a greedy walk in the prebuilt
// topological order packs atomic tables into merged tables ("cross
// products", Fig 8) under an explicit Tofino-like resource model, producing
// M stages with N merged tables each. The merger works entirely on dense
// analysis indices: merged tables hold pointers into the analysis instead of
// `AtomicTable` copies, stages keep incremental atomic-op/SALU/rule counters
// instead of recomputing them by iteration inside the stage-scan loop, and
// per-array pin state is dense-id indexed. Stages are materialized only on
// actual placement (a failed scan allocates nothing). When an access needs
// its array later than the stage the array was pinned to, the pin moves and
// the placement restarts. Three rules keep the merger from re-walking work
// whose result cannot change, none of which alters a placement:
//
//  - *Open-table lists*: each stage keeps, in table order, the indices of
//    its tables still below `members_per_table`; the join scan walks only
//    those, so its first fit is the same.
//  - *Closed-stage skip*: a stage at the ALU-op cap, or with every table
//    slot taken by a full table, rejects every item. The stage scan jumps
//    over closed stages through a path-compressed "next open stage" index.
//    An access to an array that is already placed still walks stage by
//    stage, because a SALU-full stage on its way moves the array's pin.
//  - *Prefix snapshot*: the items of the global order before the first
//    array access touch no pin, so they land in the same place on every
//    attempt. They are placed once per layout and every restart starts
//    from a snapshot of that state.
//
// The merger is program-wide: handlers share one physical pipeline (the event
// dispatcher selects among them), tables of different handlers are disjoint
// by event id and can share stages, and each register array is pinned to a
// single stage consistent with every handler's access order — which the
// ordered type system has already guaranteed is possible.
//
// `Compilation` (src/core/driver.hpp) owns one `LayoutAnalysis` per source,
// computed lazily and shared through `clone_from_stage`, so a sweep over any
// grid of resource models runs Phase A exactly once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "support/diagnostics.hpp"

namespace lucid::opt {

// ---------------------------------------------------------------------------
// Resource model
// ---------------------------------------------------------------------------

/// A simple model of one PISA pipeline's per-stage resources, calibrated to
/// the Tofino 1 numbers the paper's evaluation uses.
struct ResourceModel {
  int max_stages = 12;        // MAU stages in one Tofino pipeline
  int tables_per_stage = 8;   // logical tables per stage
  int salus_per_stage = 4;    // stateful ALUs (register arrays) per stage
  int rules_per_table = 512;  // static entries after cross-producting
  int members_per_table = 12; // atomic tables merged into one logical table
  int alu_ops_per_stage = 14; // ALU instructions (PHV ops) per stage

  static ResourceModel tofino() { return ResourceModel{}; }

  friend bool operator==(const ResourceModel&,
                         const ResourceModel&) = default;
};

// ---------------------------------------------------------------------------
// Pass 1: branch inlining
// ---------------------------------------------------------------------------

/// A handler whose branch tables have been dissolved into per-table guards.
/// `tables` keeps the original topological order.
struct GuardedHandler {
  std::string handler;
  int event_id = -1;
  std::vector<ir::AtomicTable> tables;  // no Branch tables; guards filled
};

/// Computes path conditions and deletes branch tables. If a guard
/// disjunction exceeds `max_conjs` the handler is reported through `diags`
/// (code "opt-guard-blowup") and the offending table keeps an
/// over-approximate guard — the layout still works, but emission refuses.
[[nodiscard]] GuardedHandler inline_branches(const ir::HandlerGraph& g,
                                             DiagnosticEngine& diags,
                                             int max_conjs = 64);

/// True when `a && b` is unsatisfiable.
[[nodiscard]] bool conjs_contradict(const ir::Conj& a, const ir::Conj& b);

/// True when two guarded tables can never execute for the same packet:
/// different handlers (selected by event id) or pairwise-contradictory
/// guards.
[[nodiscard]] bool tables_disjoint(const ir::AtomicTable& a,
                                   const ir::AtomicTable& b);

// ---------------------------------------------------------------------------
// Pass 2: dependency analysis
// ---------------------------------------------------------------------------

/// Adjacency list: deps[j] holds the indices i (< j positions in
/// `h.tables`) that must be placed in a strictly earlier stage than j.
[[nodiscard]] std::vector<std::vector<int>> dependency_edges(
    const GuardedHandler& h, const ir::ProgramIR& ir);

/// Longest-path (ASAP) level of every table given `deps`.
[[nodiscard]] std::vector<int> asap_levels(
    const GuardedHandler& h, const std::vector<std::vector<int>>& deps);

// ---------------------------------------------------------------------------
// Phase A: the model-independent layout analysis
// ---------------------------------------------------------------------------

/// Everything the greedy merger needs that is a pure function of the IR.
/// Immutable once built; safe to share across threads and across any number
/// of resource-model variants (see the file header).
struct LayoutAnalysis {
  /// One guarded atomic table, flattened into the global item space.
  struct Item {
    int handler = 0;      // dense handler id (index into `guarded`)
    int index = 0;        // index into guarded[handler].tables
    int level = 0;        // ASAP level within the handler
    int array = -1;       // dense array id (-1: not a Mem table)
    long rules = 0;       // static rules this table adds when merged
    bool uncond = false;  // no guards (executes unconditionally)
    const ir::AtomicTable* table = nullptr;  // points into `guarded`
  };

  // Per-handler pass 1 + 2 artifacts, in ir.handlers order.
  std::vector<GuardedHandler> guarded;
  std::vector<std::vector<std::vector<int>>> deps;  // per handler, local ids
  std::vector<std::vector<int>> levels;             // per handler

  // Interned symbols: handler id == index into `guarded`/`handler_names`;
  // array id == index into `array_names` (declaration order).
  std::vector<std::string> handler_names;
  std::vector<std::string> array_names;

  // Global item space: one entry per guarded table, handler-major.
  std::vector<Item> items;
  /// Dependencies in global item ids: item_deps[g] lists items that must be
  /// placed in a strictly earlier stage than g.
  std::vector<std::vector<int>> item_deps;
  /// Item ids sorted by (level, handler, index): the global topological
  /// order every merge attempt walks. Prebuilt once; restarts reuse it.
  std::vector<int> order;

  /// Converged model-independent stage lower bound per array id: the max
  /// ASAP level of any access, with the cross-handler stateful-order edges
  /// propagated to a fixpoint.
  std::vector<int> array_lb;

  /// Diagnostics produced while analyzing (e.g. "opt-guard-blowup"),
  /// replayed verbatim into every compilation that consumes this analysis.
  /// `diagnostics` is the flattened handler-order stream Phase B replays;
  /// `handler_diagnostics` keeps the same diagnostics per handler so an
  /// incremental update can carry a clean handler's transcript over without
  /// re-running branch inlining.
  std::vector<Diagnostic> diagnostics;
  std::vector<std::vector<Diagnostic>> handler_diagnostics;

  /// Memoized tables_disjoint() over the global item space. Cross-handler
  /// pairs are always disjoint (the event dispatcher selects one handler
  /// per packet), so only same-handler blocks are stored — O(sum t_h^2)
  /// memory and fill time instead of the dense items^2 matrix, whose
  /// allocation alone made Phase A quadratic in whole-program size. Block h
  /// is row-major over guarded[h].tables local indices; the diagonal is 0
  /// (a table always co-fires with itself), matching tables_disjoint.
  [[nodiscard]] bool disjoint(int a, int b) const {
    const Item& x = items[static_cast<std::size_t>(a)];
    const Item& y = items[static_cast<std::size_t>(b)];
    if (x.handler != y.handler) return true;
    const auto& block = disjoint_blocks_[static_cast<std::size_t>(x.handler)];
    const std::size_t t =
        guarded[static_cast<std::size_t>(x.handler)].tables.size();
    return block[static_cast<std::size_t>(x.index) * t +
                 static_cast<std::size_t>(y.index)] != 0;
  }

  [[nodiscard]] int item_count() const {
    return static_cast<int>(items.size());
  }

  /// Same-handler disjointness blocks (see disjoint()).
  std::vector<std::vector<std::uint8_t>> disjoint_blocks_;
};

/// Runs Phase A: branch inlining, dependency analysis, interning, the
/// global item order, the disjointness matrix, and the array lower bounds.
/// The result holds pointers into itself and is returned shared so pipelines
/// (whose merged tables point into it) can keep it alive.
[[nodiscard]] std::shared_ptr<const LayoutAnalysis> analyze_layout(
    const ir::ProgramIR& ir, int max_conjs = 64);

/// Incremental Phase A: patch `prev` against a new IR in which only
/// `dirty_handlers` changed. Clean handlers keep their guarded tables,
/// per-handler diagnostics, dependency edges, ASAP levels, and same-handler
/// disjointness block from `prev`; dirty handlers are re-analyzed; all
/// cross-handler structures (item space, order, array bounds) are rebuilt.
/// Produces an analysis identical to a cold analyze_layout of the new IR
/// (differential-tested). Returns nullptr when patching is unsound — the
/// handler list changed shape, or a clean handler's event id moved — and
/// the caller must fall back to analyze_layout. `handlers_reused`, when
/// non-null, receives the number of handlers carried over.
[[nodiscard]] std::shared_ptr<const LayoutAnalysis> update_layout_analysis(
    const LayoutAnalysis& prev, const ir::ProgramIR& ir,
    const std::set<std::string>& dirty_handlers, int max_conjs = 64,
    int* handlers_reused = nullptr);

// ---------------------------------------------------------------------------
// Phase B: greedy merging / pipeline layout
// ---------------------------------------------------------------------------

struct MergedTable {
  /// Member atomic tables, pointing into the owning Pipeline's analysis
  /// (kept alive by Pipeline::analysis) — never copies.
  std::vector<const ir::AtomicTable*> members;
  std::string array;  // the single register array bound to this table ("")
  /// Rule count after cross-producting, per owning handler (rules from
  /// different handlers are disjoint on the event id, so they add).
  std::map<std::string, long> rules_per_handler;
  [[nodiscard]] long total_rules() const;
};

struct StageLayout {
  std::vector<MergedTable> tables;
  [[nodiscard]] int atomic_ops() const;  // total member atomic tables
  [[nodiscard]] int salus() const;       // distinct arrays
};

struct Pipeline {
  std::vector<StageLayout> stages;
  std::map<std::string, int> array_stage;
  bool fits = true;       // stage count within the model
  bool feasible = true;   // layout algorithm completed
  int restarts = 0;       // placement attempts abandoned to move an array pin
  /// The Phase A artifact the merged tables point into. Shared, not copied:
  /// every variant of a sweep holds the same analysis.
  std::shared_ptr<const LayoutAnalysis> analysis;
  [[nodiscard]] int stage_count() const {
    return static_cast<int>(stages.size());
  }
  [[nodiscard]] std::vector<int> ops_per_stage() const;
  [[nodiscard]] std::string str() const;
};

/// Phase B alone: lays the program out under `model`, consuming a prebuilt
/// analysis. Replays the analysis diagnostics into `diags` first, so the
/// transcript is identical whether the analysis was computed here or shared.
[[nodiscard]] Pipeline layout(std::shared_ptr<const LayoutAnalysis> analysis,
                              const ResourceModel& model,
                              DiagnosticEngine& diags);

/// Convenience: analyze_layout + layout in one call (the "cold" path).
[[nodiscard]] Pipeline layout(const ir::ProgramIR& ir,
                              const ResourceModel& model,
                              DiagnosticEngine& diags);

/// Fig 12/13 data for one program.
struct LayoutStats {
  int unoptimized_stages = 0;  // atomic tables on the longest code path
  int optimized_stages = 0;    // merged pipeline depth
  std::vector<int> ops_per_stage;
  bool fits = false;
  [[nodiscard]] double stage_ratio() const {
    return optimized_stages == 0
               ? 0.0
               : static_cast<double>(unoptimized_stages) / optimized_stages;
  }
};
[[nodiscard]] LayoutStats layout_stats(const ir::ProgramIR& ir,
                                       const ResourceModel& model,
                                       DiagnosticEngine& diags);

}  // namespace lucid::opt
