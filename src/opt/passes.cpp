#include "opt/passes.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace lucid::opt {

using ir::AtomicTable;
using ir::Conj;
using ir::MatchTest;
using ir::TableKind;

// ---------------------------------------------------------------------------
// Pass 1: branch inlining
// ---------------------------------------------------------------------------

namespace {

/// Appends `test` to `conj`, returning false if the conjunction becomes
/// contradictory (so the path is dead and can be dropped). Implied tests are
/// skipped; an == test subsumes any != tests on the same variable.
bool add_test(Conj& conj, const MatchTest& test) {
  for (const auto& t : conj) {
    if (t.var != test.var) continue;
    if (t.eq && test.eq) {
      if (t.value != test.value) return false;  // x==a && x==b, a!=b
      return true;                              // duplicate
    }
    if (t.eq && !test.eq) {
      if (t.value == test.value) return false;  // x==a && x!=a
      return true;  // x==a implies x!=b for every b != a
    }
    if (!t.eq && test.eq) {
      if (t.value == test.value) return false;  // x!=a && x==a
      continue;  // compatible but not implied; keep scanning
    }
    if (t.value == test.value) return true;  // duplicate x!=a
  }
  if (test.eq) {
    // The new equality subsumes every inequality on the same variable.
    std::erase_if(conj, [&](const MatchTest& t) {
      return t.var == test.var && !t.eq;
    });
  }
  conj.push_back(test);
  return true;
}

}  // namespace

bool conjs_contradict(const Conj& a, const Conj& b) {
  Conj merged = a;
  for (const auto& t : b) {
    if (!add_test(merged, t)) return true;
  }
  return false;
}

bool tables_disjoint(const AtomicTable& t1, const AtomicTable& t2) {
  if (t1.handler != t2.handler) return true;
  if (t1.guards.empty() || t2.guards.empty()) return false;
  for (const auto& c1 : t1.guards) {
    for (const auto& c2 : t2.guards) {
      if (!conjs_contradict(c1, c2)) return false;
    }
  }
  return true;
}

namespace {

/// conj1 && conj2, or nullopt if contradictory.
std::optional<Conj> conj_and(const Conj& a, const MatchTest& t) {
  Conj out = a;
  if (!add_test(out, t)) return std::nullopt;
  return out;
}

/// True if any conjunction is empty (i.e. the disjunction is "always").
bool is_always(const std::vector<Conj>& guards) {
  for (const auto& c : guards) {
    if (c.empty()) return true;
  }
  return false;
}

bool test_equal(const MatchTest& a, const MatchTest& b) {
  return a.var == b.var && a.eq == b.eq && a.value == b.value;
}
bool test_complement(const MatchTest& a, const MatchTest& b) {
  return a.var == b.var && a.value == b.value && a.eq != b.eq;
}

/// True if every test of `small` appears in `big` (so big implies small,
/// and `small OR big == small`).
bool conj_subsumes(const Conj& small, const Conj& big) {
  for (const auto& t : small) {
    bool found = false;
    for (const auto& b : big) {
      if (test_equal(t, b)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// If `a` and `b` agree on all tests except exactly one complementary pair,
/// returns the merged conjunction without that pair (Quine-McCluskey-style
/// adjacency merging).
std::optional<Conj> conj_merge_complement(const Conj& a, const Conj& b) {
  if (a.size() != b.size()) return std::nullopt;
  // Find the unique test of `a` that has a complement in `b` while every
  // other test matches exactly.
  int comp_index = -1;
  std::vector<bool> used(b.size(), false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    bool matched = false;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && test_equal(a[i], b[j])) {
        used[j] = true;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && test_complement(a[i], b[j])) {
        used[j] = true;
        if (comp_index >= 0) return std::nullopt;  // two mismatches
        comp_index = static_cast<int>(i);
        matched = true;
        break;
      }
    }
    if (!matched) return std::nullopt;
  }
  if (comp_index < 0) return std::nullopt;  // identical conjunctions
  Conj merged;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (static_cast<int>(i) != comp_index) merged.push_back(a[i]);
  }
  return merged;
}

/// Simplifies a disjunction: absorption (A or A&B == A) and complementary
/// adjacency merging ((A&x) or (A&!x) == A), to fixpoint. This is what turns
/// a post-if join's path union back into "always".
void simplify_disjunction(std::vector<Conj>& cs) {
  bool changed = true;
  while (changed) {
    changed = false;
    // Absorption & duplicates.
    for (std::size_t i = 0; i < cs.size() && !changed; ++i) {
      for (std::size_t j = 0; j < cs.size(); ++j) {
        if (i == j) continue;
        if (conj_subsumes(cs[i], cs[j])) {
          cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
          break;
        }
      }
    }
    if (changed) continue;
    // Complementary merges.
    for (std::size_t i = 0; i < cs.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < cs.size(); ++j) {
        if (auto merged = conj_merge_complement(cs[i], cs[j])) {
          cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
          cs[i] = std::move(*merged);
          changed = true;
          break;
        }
      }
    }
  }
}

void append_guard(std::vector<Conj>& dst, const Conj& c) {
  for (const auto& existing : dst) {
    if (existing.size() == c.size() && conj_subsumes(existing, c)) {
      return;  // duplicate
    }
  }
  dst.push_back(c);
}

}  // namespace

GuardedHandler inline_branches(const ir::HandlerGraph& g,
                               DiagnosticEngine& diags, int max_conjs) {
  GuardedHandler out;
  out.handler = g.handler;
  out.event_id = g.event_id;
  if (g.entry < 0) return out;

  // Path conditions per table. Table ids are in topological (program) order
  // by construction, so a single forward sweep propagates them.
  std::vector<std::vector<Conj>> paths(g.tables.size());
  std::vector<bool> reachable(g.tables.size(), false);
  paths[static_cast<std::size_t>(g.entry)] = {Conj{}};
  reachable[static_cast<std::size_t>(g.entry)] = true;

  auto propagate = [&](int to, const std::vector<Conj>& conds) {
    if (to < 0) return;
    auto& dst = paths[static_cast<std::size_t>(to)];
    reachable[static_cast<std::size_t>(to)] = true;
    if (is_always(dst)) return;
    for (const auto& c : conds) {
      if (c.empty()) {
        dst = {Conj{}};
        return;
      }
      append_guard(dst, c);
    }
    simplify_disjunction(dst);
    if (static_cast<int>(dst.size()) > max_conjs) {
      diags.warning({}, "opt-guard-blowup",
                    "handler '" + g.handler +
                        "': path-condition disjunction exceeded " +
                        std::to_string(max_conjs) +
                        " rules; guard over-approximated");
      dst = {Conj{}};
    }
  };

  for (std::size_t id = 0; id < g.tables.size(); ++id) {
    if (!reachable[id]) continue;
    const AtomicTable& t = g.tables[id];
    const auto& my_paths = paths[id];
    if (t.kind == TableKind::Branch) {
      // Branch subjects are always ==/!= against a constant (the lowering
      // canonicalizes everything else into one-bit predicates).
      MatchTest then_test{t.branch.subject.var,
                          t.branch.cmp == ir::CmpOp::Eq,
                          t.branch.constant};
      if (t.branch.subject.is_const()) {
        // Constant-folded branch: exactly one side is live.
        const bool truth = t.branch.cmp == ir::CmpOp::Eq
                               ? t.branch.subject.value == t.branch.constant
                               : t.branch.subject.value != t.branch.constant;
        propagate(t.next[truth ? 0 : 1], my_paths);
        continue;
      }
      MatchTest else_test = then_test;
      else_test.eq = !else_test.eq;
      std::vector<Conj> then_conds;
      std::vector<Conj> else_conds;
      for (const auto& c : my_paths) {
        if (auto tc = conj_and(c, then_test)) {
          then_conds.push_back(std::move(*tc));
        }
        if (auto ec = conj_and(c, else_test)) {
          else_conds.push_back(std::move(*ec));
        }
      }
      if (!then_conds.empty()) propagate(t.next[0], then_conds);
      if (!else_conds.empty()) propagate(t.next[1], else_conds);
    } else {
      for (const int n : t.next) propagate(n, my_paths);
    }
  }

  for (std::size_t id = 0; id < g.tables.size(); ++id) {
    if (!reachable[id]) continue;
    const AtomicTable& t = g.tables[id];
    if (t.kind == TableKind::Branch) continue;
    AtomicTable copy = t;
    copy.next.clear();
    copy.guards = is_always(paths[id]) ? std::vector<Conj>{} : paths[id];
    out.tables.push_back(std::move(copy));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass 2: dependency analysis
// ---------------------------------------------------------------------------

namespace {

/// Shared implementation: `disjoint(i, j)` answers whether tables i and j of
/// `h` can ever fire for the same packet. The public entry point computes
/// that from scratch; analyze_layout supplies the memoized matrix.
template <typename DisjointFn>
std::vector<std::vector<int>> dependency_edges_impl(const GuardedHandler& h,
                                                    DisjointFn&& disjoint) {
  const std::size_t n = h.tables.size();
  std::vector<std::vector<int>> deps(n);
  // Intern local names once so the RAW/WAR/WAW tests below run on sorted
  // dense-id vectors (two-pointer intersection) instead of string sets.
  std::map<std::string, int> var_ids;
  auto intern = [&var_ids](std::vector<std::string>&& names,
                           std::vector<int>& out) {
    for (auto& v : names) {
      const auto [it, inserted] =
          var_ids.try_emplace(std::move(v), static_cast<int>(var_ids.size()));
      (void)inserted;
      out.push_back(it->second);
    }
  };
  std::vector<std::vector<int>> reads(n);
  std::vector<std::vector<int>> writes(n);
  for (std::size_t i = 0; i < n; ++i) {
    intern(h.tables[i].reads(), reads[i]);
    intern(h.tables[i].guard_reads(), reads[i]);
    intern(h.tables[i].writes(), writes[i]);
    for (auto* v : {&reads[i], &writes[i]}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
  }
  auto intersects = [](const std::vector<int>& a, const std::vector<int>& b) {
    std::size_t x = 0;
    std::size_t y = 0;
    while (x < a.size() && y < b.size()) {
      if (a[x] == b[y]) return true;
      if (a[x] < b[y]) {
        ++x;
      } else {
        ++y;
      }
    }
    return false;
  };

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      // Tables that can never fire for the same packet have no runtime
      // dataflow; leaving them unordered is what lets mutually exclusive
      // branch arms share a stage (Fig 8's idx_eq_0 / idx_eq_1).
      if (disjoint(static_cast<int>(i), static_cast<int>(j))) continue;
      // Only real dataflow orders tables — including stateful ones: the
      // paper's Fig 6(3) moves hcts_fset next to nexthops_get precisely
      // because independent stateful tables may share or swap stages.
      const bool raw = intersects(writes[i], reads[j]);
      const bool war = intersects(reads[i], writes[j]);
      const bool waw = intersects(writes[i], writes[j]);
      if (raw || war || waw) deps[j].push_back(static_cast<int>(i));
    }
  }
  for (auto& d : deps) {
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  return deps;
}

}  // namespace

std::vector<std::vector<int>> dependency_edges(const GuardedHandler& h,
                                               const ir::ProgramIR& ir) {
  (void)ir;
  return dependency_edges_impl(h, [&h](int i, int j) {
    return tables_disjoint(h.tables[static_cast<std::size_t>(i)],
                           h.tables[static_cast<std::size_t>(j)]);
  });
}

std::vector<int> asap_levels(const GuardedHandler& h,
                             const std::vector<std::vector<int>>& deps) {
  std::vector<int> level(h.tables.size(), 0);
  for (std::size_t j = 0; j < h.tables.size(); ++j) {
    for (const int i : deps[j]) {
      level[j] = std::max(level[j], level[static_cast<std::size_t>(i)] + 1);
    }
  }
  return level;
}

// ---------------------------------------------------------------------------
// Phase A: the model-independent layout analysis
// ---------------------------------------------------------------------------

namespace {

long rules_of(const AtomicTable& t) {
  // Guard conjunctions plus the default (miss) rule.
  return static_cast<long>(std::max<std::size_t>(t.guards.size(), 1)) + 1;
}

}  // namespace

namespace {

/// Shared core of the cold (analyze_layout) and incremental
/// (update_layout_analysis) Phase A builders. A null `prev` means every
/// handler is dirty; otherwise handler h is dirty iff its name is in
/// `*dirty`, and its pass 1 + 2 artifacts (guarded tables, per-handler
/// diagnostics, same-handler disjointness block, dependency edges, ASAP
/// levels) are recomputed, while clean handlers copy prev's — valid because
/// every one of those artifacts is a pure function of the handler's own
/// graph. Everything cross-handler (interning, the item space, item_deps,
/// the global order, array lower bounds) is rebuilt fresh both ways: it is
/// O(n log n) cheap and keeps array/handler id changes out of the
/// correctness argument.
std::shared_ptr<const LayoutAnalysis> build_analysis(
    const ir::ProgramIR& ir, int max_conjs, const LayoutAnalysis* prev,
    const std::set<std::string>* dirty) {
  auto an = std::make_shared<LayoutAnalysis>();

  const auto is_dirty = [&](std::size_t h) {
    return prev == nullptr || dirty == nullptr ||
           dirty->count(ir.handlers[h].handler) != 0;
  };

  // Pass 1 per handler, each with a private engine so diagnostics are
  // per-handler artifacts (what lets an incremental update keep a clean
  // handler's transcript without re-running it). The flattened handler-order
  // stream is what Phase B replays — identical to the historical transcript.
  const std::size_t handler_count = ir.handlers.size();
  an->guarded.reserve(handler_count);
  an->handler_diagnostics.reserve(handler_count);
  for (std::size_t h = 0; h < handler_count; ++h) {
    if (is_dirty(h)) {
      DiagnosticEngine local;
      an->guarded.push_back(inline_branches(ir.handlers[h], local, max_conjs));
      an->handler_diagnostics.push_back(local.all());
    } else {
      an->guarded.push_back(prev->guarded[h]);
      an->handler_diagnostics.push_back(prev->handler_diagnostics[h]);
    }
    for (const Diagnostic& d : an->handler_diagnostics.back()) {
      an->diagnostics.push_back(d);
    }
  }

  // Interned symbols. Handler id == guarded index; array id == declaration
  // order (ir.arrays), extended on demand for arrays hand-built IR may have
  // skipped registering.
  an->handler_names.reserve(an->guarded.size());
  for (const auto& g : an->guarded) an->handler_names.push_back(g.handler);
  std::map<std::string, int> array_ids;
  an->array_names.reserve(ir.arrays.size());
  for (const auto& a : ir.arrays) {
    array_ids.emplace(a.name, static_cast<int>(an->array_names.size()));
    an->array_names.push_back(a.name);
  }
  auto array_id = [&an, &array_ids](const std::string& name) {
    const auto it = array_ids.find(name);
    if (it != array_ids.end()) return it->second;
    const int id = static_cast<int>(an->array_names.size());
    an->array_names.push_back(name);
    array_ids.emplace(name, id);
    return id;
  };

  // Global item space, handler-major. Built after every GuardedHandler is in
  // place: the Item::table pointers must never dangle on vector growth.
  std::vector<std::vector<int>> item_id(handler_count);
  for (std::size_t h = 0; h < handler_count; ++h) {
    const auto& tables = an->guarded[h].tables;
    item_id[h].resize(tables.size());
    for (std::size_t i = 0; i < tables.size(); ++i) {
      item_id[h][i] = an->item_count();
      LayoutAnalysis::Item item;
      item.handler = static_cast<int>(h);
      item.index = static_cast<int>(i);
      item.table = &tables[i];
      if (tables[i].kind == TableKind::Mem) {
        item.array = array_id(tables[i].mem.array);
      }
      item.rules = rules_of(tables[i]);
      item.uncond = tables[i].guards.empty();
      an->items.push_back(item);
    }
  }
  const std::size_t n = an->items.size();

  // Memoized pairwise disjointness, block-diagonal: cross-handler pairs are
  // disjoint by event id (the dispatcher selects one handler per packet) and
  // carry no stored state; same-handler pairs are computed once and
  // mirrored — or, for a clean handler in an incremental update, the whole
  // block is copied from prev (its tables are byte-identical, so the
  // pairwise verdicts are too). Diagonals are 0, matching tables_disjoint.
  an->disjoint_blocks_.resize(handler_count);
  for (std::size_t h = 0; h < handler_count; ++h) {
    auto& block = an->disjoint_blocks_[h];
    if (!is_dirty(h)) {
      block = prev->disjoint_blocks_[h];
      continue;
    }
    const auto& tables = an->guarded[h].tables;
    const std::size_t t = tables.size();
    block.assign(t * t, 0);
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = i + 1; j < t; ++j) {
        const std::uint8_t d = tables_disjoint(tables[i], tables[j]) ? 1 : 0;
        block[i * t + j] = d;
        block[j * t + i] = d;
      }
    }
  }

  // Pass 2 per handler, consulting the memoized matrix, then ASAP levels.
  // Clean handlers copy prev's edges and levels (both are functions of the
  // handler's own tables and same-handler disjointness alone).
  an->deps.reserve(handler_count);
  an->levels.reserve(handler_count);
  for (std::size_t h = 0; h < handler_count; ++h) {
    if (is_dirty(h)) {
      an->deps.push_back(dependency_edges_impl(
          an->guarded[h], [&an, &item_id, h](int i, int j) {
            return an->disjoint(item_id[h][static_cast<std::size_t>(i)],
                                item_id[h][static_cast<std::size_t>(j)]);
          }));
      an->levels.push_back(asap_levels(an->guarded[h], an->deps.back()));
    } else {
      an->deps.push_back(prev->deps[h]);
      an->levels.push_back(prev->levels[h]);
    }
    for (std::size_t i = 0; i < an->levels[h].size(); ++i) {
      an->items[static_cast<std::size_t>(item_id[h][i])].level =
          an->levels[h][i];
    }
  }

  // Dependencies lifted into global item ids, for the merger's inner loop.
  an->item_deps.resize(n);
  for (std::size_t h = 0; h < handler_count; ++h) {
    for (std::size_t j = 0; j < an->deps[h].size(); ++j) {
      auto& out = an->item_deps[static_cast<std::size_t>(item_id[h][j])];
      out.reserve(an->deps[h][j].size());
      for (const int i : an->deps[h][j]) {
        out.push_back(item_id[h][static_cast<std::size_t>(i)]);
      }
    }
  }

  // The global topological order every merge attempt walks, prebuilt once:
  // restarts reuse it instead of rebuilding and re-sorting per attempt.
  an->order.resize(n);
  for (std::size_t g = 0; g < n; ++g) an->order[g] = static_cast<int>(g);
  std::sort(an->order.begin(), an->order.end(), [&an](int a, int b) {
    const auto& x = an->items[static_cast<std::size_t>(a)];
    const auto& y = an->items[static_cast<std::size_t>(b)];
    if (x.level != y.level) return x.level < y.level;
    if (x.handler != y.handler) return x.handler < y.handler;
    return x.index < y.index;
  });

  // Array stage lower bounds: max ASAP level of any access, then propagate
  // the per-handler stateful-order edges across handlers (the dependency
  // edges already skip mutually exclusive accesses). Non-disjoint accesses
  // always follow declaration order (the effect system proved it), so the
  // constraint graph is acyclic and a few passes converge. The Mem-kind
  // guards are pass-invariant (and restart-invariant), so they are hoisted
  // out of the convergence loop into a prebuilt pair list; a single-handler
  // program's (typically unproductive) list costs one clean pass, not a
  // re-scan of every table per pass.
  an->array_lb.assign(an->array_names.size(), 0);
  for (const auto& item : an->items) {
    if (item.array < 0) continue;
    auto& lb = an->array_lb[static_cast<std::size_t>(item.array)];
    lb = std::max(lb, item.level);
  }
  std::vector<std::pair<int, int>> mem_dep_pairs;  // lb[second] >= lb[first]+1
  for (std::size_t h = 0; h < handler_count; ++h) {
    for (std::size_t j = 0; j < an->deps[h].size(); ++j) {
      const auto& tj = an->items[static_cast<std::size_t>(item_id[h][j])];
      if (tj.array < 0) continue;
      for (const int i : an->deps[h][j]) {
        const auto& ti =
            an->items[static_cast<std::size_t>(item_id[h][static_cast<std::size_t>(i)])];
        if (ti.array < 0) continue;
        mem_dep_pairs.emplace_back(ti.array, tj.array);
      }
    }
  }
  for (std::size_t pass = 0; pass < an->array_names.size() + 1; ++pass) {
    bool changed = false;
    for (const auto& [from, to] : mem_dep_pairs) {
      const int need = an->array_lb[static_cast<std::size_t>(from)] + 1;
      if (an->array_lb[static_cast<std::size_t>(to)] < need) {
        an->array_lb[static_cast<std::size_t>(to)] = need;
        changed = true;
      }
    }
    if (!changed) break;
  }

  return an;
}

}  // namespace

std::shared_ptr<const LayoutAnalysis> analyze_layout(const ir::ProgramIR& ir,
                                                     int max_conjs) {
  return build_analysis(ir, max_conjs, nullptr, nullptr);
}

std::shared_ptr<const LayoutAnalysis> update_layout_analysis(
    const LayoutAnalysis& prev, const ir::ProgramIR& ir,
    const std::set<std::string>& dirty_handlers, int max_conjs,
    int* handlers_reused) {
  if (handlers_reused != nullptr) *handlers_reused = 0;
  // Patching is only sound against the same handler list in the same order
  // (dense handler ids must line up); anything else — a handler added,
  // removed, renamed, or reordered — falls back to a full recompute. A clean
  // handler whose event id shifted (an event decl moved) is also a fallback:
  // its copied GuardedHandler would carry the stale id.
  if (prev.guarded.size() != ir.handlers.size() ||
      prev.handler_diagnostics.size() != prev.guarded.size()) {
    return nullptr;
  }
  int reused = 0;
  for (std::size_t h = 0; h < ir.handlers.size(); ++h) {
    if (prev.guarded[h].handler != ir.handlers[h].handler) return nullptr;
    if (dirty_handlers.count(ir.handlers[h].handler) == 0) {
      if (prev.guarded[h].event_id != ir.handlers[h].event_id) return nullptr;
      ++reused;
    }
  }
  auto an = build_analysis(ir, max_conjs, &prev, &dirty_handlers);
  if (an != nullptr && handlers_reused != nullptr) *handlers_reused = reused;
  return an;
}

// ---------------------------------------------------------------------------
// Phase B: greedy merging
// ---------------------------------------------------------------------------

long MergedTable::total_rules() const {
  long total = 0;
  for (const auto& [h, r] : rules_per_handler) total += r;
  return std::max<long>(total, 1);
}

int StageLayout::atomic_ops() const {
  int n = 0;
  for (const auto& t : tables) n += static_cast<int>(t.members.size());
  return n;
}

int StageLayout::salus() const {
  std::set<std::string> arrays;
  for (const auto& t : tables) {
    if (!t.array.empty()) arrays.insert(t.array);
  }
  return static_cast<int>(arrays.size());
}

std::vector<int> Pipeline::ops_per_stage() const {
  std::vector<int> out;
  out.reserve(stages.size());
  for (const auto& s : stages) out.push_back(s.atomic_ops());
  return out;
}

std::string Pipeline::str() const {
  std::string s;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    s += "stage " + std::to_string(i) + ": ";
    for (const auto& t : stages[i].tables) {
      s += "[";
      for (std::size_t m = 0; m < t.members.size(); ++m) {
        if (m > 0) s += " ";
        s += t.members[m]->handler + "#" + std::to_string(t.members[m]->id);
      }
      if (!t.array.empty()) s += " @" + t.array;
      s += "] ";
    }
    s += "\n";
  }
  return s;
}

Pipeline layout(std::shared_ptr<const LayoutAnalysis> analysis,
                const ResourceModel& model, DiagnosticEngine& diags) {
  const LayoutAnalysis& an = *analysis;
  Pipeline pipe;
  pipe.analysis = std::move(analysis);

  // Replay the Phase A diagnostics so a compile that shares the analysis
  // produces the same transcript as one that computed it.
  for (const Diagnostic& d : an.diagnostics) {
    diags.add(d.severity, d.range, d.code, d.message);
  }

  const int array_count = static_cast<int>(an.array_names.size());
  const std::size_t n = an.items.size();

  // Internal dense working state: member *indices* into the analysis, per-
  // stage incremental counters, and dense-id pin state — no AtomicTable
  // copies, string keys, or map lookups inside the placement loops.
  struct TableState {
    std::vector<int> members;  // global item ids
    int array = -1;            // dense array id
    long rules_total = 0;      // incremental sum of member rules
  };
  struct StageState {
    std::vector<TableState> tables;
    std::vector<int> open;    // tables below members_per_table, table order
    int atomic_ops = 0;       // incremental: members across all tables
    std::vector<int> arrays;  // distinct array ids present (salus count)
    /// This stage's index while it can still take an item; once closed,
    /// a later stage index with every stage in between closed too.
    int next_open = 0;
    [[nodiscard]] bool has_array(int a) const {
      for (const int x : arrays) {
        if (x == a) return true;
      }
      return false;
    }
  };

  std::vector<StageState> stages;
  std::vector<int> array_pin = an.array_lb;  // lower bounds seed the pins
  std::vector<int> array_stage(static_cast<std::size_t>(array_count), -1);
  // Not reset between attempts: an item's dependencies precede it in
  // `an.order`, so the attempt placing it has always placed them first.
  std::vector<int> placed(n, -1);

  const long ops_cap = static_cast<long>(model.alu_ops_per_stage) *
                       std::max(1, model.tables_per_stage);

  // First stage >= s that is not closed, with path compression. Stages past
  // the high-water mark are virtually empty, hence open.
  const auto next_open_stage = [&](int s) {
    int r = s;
    while (r < static_cast<int>(stages.size()) &&
           stages[static_cast<std::size_t>(r)].next_open != r) {
      r = stages[static_cast<std::size_t>(r)].next_open;
    }
    while (s < r) {
      const int next = stages[static_cast<std::size_t>(s)].next_open;
      stages[static_cast<std::size_t>(s)].next_open = r;
      s = next;
    }
    return r;
  };

  // Places item `g` in the first stage from its earliest legal one that
  // fits, returning that stage, or -1 when no stage in the scan window fits
  // or the item's array must move (then `restart` is set).
  const auto place = [&](int g, bool& restart) {
    const LayoutAnalysis::Item& item = an.items[static_cast<std::size_t>(g)];
    int earliest = 0;
    for (const int d : an.item_deps[static_cast<std::size_t>(g)]) {
      earliest = std::max(earliest, placed[static_cast<std::size_t>(d)] + 1);
    }

    const bool is_mem = item.array >= 0;
    const int pin =
        is_mem ? array_stage[static_cast<std::size_t>(item.array)] : -1;
    if (is_mem) {
      if (pin >= 0 && earliest > pin) {
        // The array was already placed earlier than this access needs:
        // push the pin and restart the placement.
        array_pin[static_cast<std::size_t>(item.array)] = earliest;
        restart = true;
        return -1;
      }
      earliest = std::max(earliest,
                          array_pin[static_cast<std::size_t>(item.array)]);
      if (pin >= 0) earliest = pin;
    }

    // Scan stages from `earliest` for a merged table (or a slot for a new
    // one) that fits. Closed stages — at the ALU-op cap, or with every
    // table slot taken by a full table — reject every item, so the scan
    // jumps over them. An access to an already-placed array walks stage by
    // stage instead: a SALU-full stage moves its pin even when closed.
    // Stages past the high-water mark are virtually empty and materialized
    // only on actual placement — a failed scan allocates nothing.
    const int end = earliest + 4 * model.max_stages;
    for (int s = pin >= 0 ? earliest : next_open_stage(earliest); s < end;
         s = pin >= 0 ? s + 1 : next_open_stage(s + 1)) {
      StageState* stage = s < static_cast<int>(stages.size())
                              ? &stages[static_cast<std::size_t>(s)]
                              : nullptr;
      if ((stage != nullptr ? stage->atomic_ops : 0) + 1 > ops_cap) continue;
      const bool array_new_here =
          is_mem && (stage == nullptr || !stage->has_array(item.array));
      if (array_new_here &&
          (stage != nullptr ? static_cast<int>(stage->arrays.size()) : 0) >=
              model.salus_per_stage) {
        if (pin >= 0) {
          // Pinned stage is full of other arrays: infeasible pin.
          array_pin[static_cast<std::size_t>(item.array)] = s + 1;
          restart = true;
        }
        continue;
      }
      // Try to join an open merged table, first fit in table order. Same-
      // handler members must be either all unconditional (their ops combine
      // into one action) or pairwise disjoint (each gets its own rules) —
      // mirroring the merged tables of Fig 8. Members of different handlers
      // are always disjoint on the event id. All checks run on dense
      // analysis indices; the disjointness tests hit the memoized matrix.
      TableState* target = nullptr;
      std::size_t open_slot = 0;
      if (stage != nullptr) {
        for (; open_slot < stage->open.size(); ++open_slot) {
          TableState& mt =
              stage->tables[static_cast<std::size_t>(stage->open[open_slot])];
          if (is_mem && mt.array >= 0 && mt.array != item.array) continue;
          bool compatible = true;
          for (const int m : mt.members) {
            const LayoutAnalysis::Item& member =
                an.items[static_cast<std::size_t>(m)];
            if (member.handler != item.handler) continue;
            if (member.uncond != item.uncond) {
              compatible = false;
              break;
            }
            if (!item.uncond && !an.disjoint(m, g)) {
              compatible = false;
              break;
            }
          }
          if (!compatible) continue;
          // Rules add: disjoint same-handler members, disjoint handlers.
          if (mt.rules_total + item.rules > model.rules_per_table) continue;
          target = &mt;
          break;
        }
      }
      if (target == nullptr) {
        if ((stage != nullptr ? static_cast<int>(stage->tables.size()) : 0) >=
            model.tables_per_stage) {
          continue;
        }
        while (static_cast<int>(stages.size()) <= s) {
          stages.emplace_back();
          stages.back().next_open = static_cast<int>(stages.size()) - 1;
        }
        stage = &stages[static_cast<std::size_t>(s)];
        open_slot = stage->open.size();
        stage->open.push_back(static_cast<int>(stage->tables.size()));
        target = &stage->tables.emplace_back();
      }
      target->members.push_back(g);
      target->rules_total += item.rules;
      if (static_cast<int>(target->members.size()) >=
          model.members_per_table) {
        stage->open.erase(stage->open.begin() +
                          static_cast<std::ptrdiff_t>(open_slot));
      }
      stage->atomic_ops += 1;
      if (stage->atomic_ops + 1 > ops_cap ||
          (stage->open.empty() &&
           static_cast<int>(stage->tables.size()) >= model.tables_per_stage)) {
        stage->next_open = s + 1;
      }
      if (is_mem) {
        target->array = item.array;
        if (array_new_here) stage->arrays.push_back(item.array);
        array_stage[static_cast<std::size_t>(item.array)] = s;
        if (s > array_pin[static_cast<std::size_t>(item.array)]) {
          array_pin[static_cast<std::size_t>(item.array)] = s;
        }
      }
      return s;
    }
    return -1;
  };

  // Places order[from, to); false (after reporting why) if an item does not
  // fit anywhere or an array pin moved (`restart`).
  const auto place_span = [&](std::size_t from, std::size_t to,
                              bool& restart) {
    for (std::size_t k = from; k < to; ++k) {
      const int g = an.order[k];
      const int chosen = place(g, restart);
      if (restart) return false;
      if (chosen < 0) {
        const LayoutAnalysis::Item& item =
            an.items[static_cast<std::size_t>(g)];
        pipe.feasible = false;
        diags.warning({}, "opt-layout-infeasible",
                      "could not place table '" + item.table->str() +
                          "' of handler '" + item.table->handler + "'");
        return false;
      }
      placed[static_cast<std::size_t>(g)] = chosen;
    }
    return true;
  };

  // The items before the first array access touch no pin, so they land in
  // the same place on every attempt: place them once and restart each
  // attempt from a snapshot of that state.
  const std::size_t prefix = static_cast<std::size_t>(
      std::find_if(an.order.begin(), an.order.end(),
                   [&](int g) {
                     return an.items[static_cast<std::size_t>(g)].array >= 0;
                   }) -
      an.order.begin());
  bool restart = false;
  if (place_span(0, prefix, restart)) {
    const std::vector<StageState> snapshot = stages;
    // Greedy placement, restarting when an array must move later than where
    // a prior placement pinned it.
    const int max_restarts = array_count * (model.max_stages + 4) + 8;
    for (int attempt = 0; attempt <= max_restarts; ++attempt) {
      if (attempt > 0) {
        stages = snapshot;
        std::fill(array_stage.begin(), array_stage.end(), -1);
        restart = false;
      }
      place_span(prefix, an.order.size(), restart);
      if (!restart) break;
      ++pipe.restarts;
      if (attempt == max_restarts) {
        pipe.feasible = false;
        diags.warning({}, "opt-layout-restarts",
                      "layout did not converge; resource model too tight");
      }
    }
  }

  // Trim trailing empty stages (interior gap stages, materialized to reach a
  // later placement, stay — as before).
  while (!stages.empty() && stages.back().tables.empty()) {
    stages.pop_back();
  }

  // Materialize the public pipeline once: members are pointers into the
  // analysis (kept alive by pipe.analysis), never AtomicTable copies.
  pipe.stages.resize(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    pipe.stages[s].tables.reserve(stages[s].tables.size());
    for (const TableState& ts : stages[s].tables) {
      MergedTable mt;
      mt.members.reserve(ts.members.size());
      for (const int m : ts.members) {
        const LayoutAnalysis::Item& item =
            an.items[static_cast<std::size_t>(m)];
        mt.members.push_back(item.table);
        mt.rules_per_handler[an.handler_names[static_cast<std::size_t>(
            item.handler)]] += item.rules;
      }
      if (ts.array >= 0) {
        mt.array = an.array_names[static_cast<std::size_t>(ts.array)];
      }
      pipe.stages[s].tables.push_back(std::move(mt));
    }
  }
  for (int a = 0; a < array_count; ++a) {
    const int s = array_stage[static_cast<std::size_t>(a)];
    if (s >= 0) {
      pipe.array_stage[an.array_names[static_cast<std::size_t>(a)]] = s;
    }
  }

  pipe.fits = pipe.stage_count() <= model.max_stages && pipe.feasible;
  return pipe;
}

Pipeline layout(const ir::ProgramIR& ir, const ResourceModel& model,
                DiagnosticEngine& diags) {
  return layout(analyze_layout(ir), model, diags);
}

LayoutStats layout_stats(const ir::ProgramIR& ir, const ResourceModel& model,
                         DiagnosticEngine& diags) {
  LayoutStats stats;
  stats.unoptimized_stages = ir.total_longest_path();
  const Pipeline p = layout(ir, model, diags);
  stats.optimized_stages = p.stage_count();
  stats.ops_per_stage = p.ops_per_stage();
  stats.fits = p.fits;
  return stats;
}

}  // namespace lucid::opt
