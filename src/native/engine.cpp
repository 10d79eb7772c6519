#include "native/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.hpp"
#include "support/bits.hpp"

namespace lucid::native {

namespace {

using support::mask_width;

/// Shared by Runtime and Replica: validate an injected event against the IR
/// declaration and mask args to their param widths (EventCtor semantics).
const ir::EventInfo* validate_event(const ir::ProgramIR& ir,
                                    const std::string& name,
                                    std::vector<std::int64_t>& args) {
  // ABI hard cap, checked before the declaration walk: the fixed args[]
  // slabs (RPacket, PacketIn) hold kMaxArgs words, so an over-arity
  // injection must be rejected, never truncated. Program::build refuses
  // events declared wider, but injection is caller input — same reject
  // semantics as Runtime::inject on an arity mismatch.
  if (args.size() > static_cast<std::size_t>(kMaxArgs)) return nullptr;
  for (const auto& ev : ir.events) {
    if (ev.name != name) continue;
    if (args.size() != ev.params.size()) return nullptr;
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = mask_width(args[i], ev.params[i].second);
    }
    return &ev;
  }
  return nullptr;
}

void build_run_stats(const ir::ProgramIR& ir,
                     const std::vector<std::uint64_t>& execs,
                     const std::vector<std::uint64_t>& gens,
                     std::uint64_t total, RunStats* out) {
  out->executions.clear();
  out->generated.clear();
  out->total_executions = total;
  for (std::size_t id = 0; id < ir.events.size(); ++id) {
    if (execs[id] != 0) out->executions[ir.events[id].name] = execs[id];
    if (gens[id] != 0) out->generated[ir.events[id].name] = gens[id];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

double measure_batch_pps(const ir::ProgramIR& ir, const Module& mod,
                         const BatchCall& call, double budget_s) {
  std::vector<const ir::EventInfo*> handlers;
  for (const auto& ev : ir.events) {
    if (ev.has_handler) handlers.push_back(&ev);
  }
  if (handlers.empty()) return 0.0;
  constexpr std::int32_t kBatch = 4096;
  std::vector<PacketIn> in(static_cast<std::size_t>(kBatch));
  for (std::int32_t i = 0; i < kBatch; ++i) {
    const ir::EventInfo& ev =
        *handlers[static_cast<std::size_t>(i) % handlers.size()];
    PacketIn& p = in[static_cast<std::size_t>(i)];
    p.event_id = ev.event_id;
    p.nargs = static_cast<std::int32_t>(
        std::min<std::size_t>(ev.params.size(), kMaxArgs));
    p.now_ns = i;
    p.self_id = 1;
    for (std::int32_t a = 0; a < p.nargs; ++a) {
      p.args[a] = (static_cast<std::int64_t>(i) * 2654435761 + a * 97) &
                  0xfff;
    }
  }
  std::vector<std::vector<std::int64_t>> cells;
  cells.reserve(ir.arrays.size());
  for (const auto& arr : ir.arrays) {
    cells.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  std::vector<std::int64_t*> ptrs;
  ptrs.reserve(cells.size());
  for (auto& c : cells) ptrs.push_back(c.data());
  const auto stride =
      static_cast<std::size_t>(std::max<std::int32_t>(mod.max_gens(), 1));
  std::vector<GenOut> out(static_cast<std::size_t>(kBatch) * stride);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(kBatch));
  call(ptrs.data(), in.data(), kBatch, out.data(), counts.data());  // warm
  std::uint64_t packets = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    call(ptrs.data(), in.data(), kBatch, out.data(), counts.data());
    packets += static_cast<std::uint64_t>(kBatch);
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  } while (elapsed < budget_s);
  return elapsed > 0.0 ? static_cast<double>(packets) / elapsed : 0.0;
}

double measure_raw_batch_pps(const ir::ProgramIR& ir, const Module& mod,
                             double budget_s) {
  return measure_batch_pps(
      ir, mod,
      [&mod](std::int64_t* const* arrays, const PacketIn* in, std::int32_t n,
             GenOut* out, std::int32_t* gen_counts) {
        mod.run_batch_raw(arrays, in, n, out, gen_counts);
      },
      budget_s);
}

std::shared_ptr<const Program> Program::build(ConstCompilationPtr comp,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::shared_ptr<const Program> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (!comp || !comp->succeeded(Stage::Layout) || !comp->ok()) {
    return fail("native engine needs a compilation that passed Layout");
  }
  if (!comp->pipeline().feasible) {
    return fail("pipeline layout is infeasible; nothing to compile");
  }
  for (const auto& ev : comp->ir().events) {
    if (ev.params.size() > static_cast<std::size_t>(kMaxArgs)) {
      return fail("event " + ev.name + " has " +
                  std::to_string(ev.params.size()) +
                  " params; native ABI caps at " + std::to_string(kMaxArgs));
    }
  }

  auto prog = std::make_shared<Program>();
  prog->comp_ = std::move(comp);
  prog->emitted_ =
      emit_source(*prog->comp_, prog->comp_->options().program_name);
  prog->module_ = Module::load(prog->emitted_.text, error);
  if (prog->module_ == nullptr) return nullptr;
  return prog;
}

const ir::EventInfo* Program::find_event(const std::string& name) const {
  for (const auto& ev : comp_->ir().events) {
    if (ev.name == name) return &ev;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Runtime (coupled)
// ---------------------------------------------------------------------------

Runtime::Runtime(std::shared_ptr<const Program> prog,
                 sched::EventScheduler& node)
    : prog_(std::move(prog)), node_(node) {
  const ir::ProgramIR& ir = prog_->ir();
  for (const auto& arr : ir.arrays) {
    node_.node().add_array(arr.name, arr.width, arr.size);
  }
  // Cache raw cell pointers only after every array exists: add_array may
  // replace entries, but never moves others (std::map nodes are stable).
  array_ptrs_.reserve(ir.arrays.size());
  for (const auto& arr : ir.arrays) {
    array_ptrs_.push_back(node_.node().find_array(arr.name)->data());
  }
  gen_buf_.resize(
      static_cast<std::size_t>(std::max<std::int32_t>(
          prog_->module().max_gens(), 1)));
  has_handler_by_id_.assign(ir.events.size(), 0);
  exec_count_by_id_.assign(ir.events.size(), 0);
  gen_count_by_id_.assign(ir.events.size(), 0);
  for (const auto& ev : ir.events) {
    if (ev.has_handler) {
      has_handler_by_id_[static_cast<std::size_t>(ev.event_id)] = 1;
    }
  }
  node_.set_execute([this](const pisa::Packet& p) { execute(p); });
}

bool Runtime::make_event(const std::string& event,
                         std::vector<std::int64_t>& args,
                         sched::GenEvent* out) const {
  const ir::EventInfo* ev = validate_event(prog_->ir(), event, args);
  if (ev == nullptr) return false;
  out->event_id = ev->event_id;
  out->args = std::move(args);
  return true;
}

bool Runtime::inject(const std::string& event, std::vector<std::int64_t> args,
                     sim::Time delay_ns, std::int64_t location) {
  sched::GenEvent ev;
  if (!make_event(event, args, &ev)) return false;
  ev.delay_ns = delay_ns;
  ev.location = location;
  node_.inject(std::move(ev));
  return true;
}

bool Runtime::inject_control(const std::string& event,
                             std::vector<std::int64_t> args,
                             sim::Time delay_ns) {
  sched::GenEvent ev;
  if (!make_event(event, args, &ev)) return false;
  ev.delay_ns = delay_ns;
  node_.inject_control(std::move(ev));
  return true;
}

void Runtime::execute(const pisa::Packet& p) {
  const auto id = static_cast<std::size_t>(p.event_id);
  if (p.event_id < 0 || id >= has_handler_by_id_.size() ||
      has_handler_by_id_[id] == 0) {
    return;
  }
  ++total_executions_;
  ++exec_count_by_id_[id];

  PacketIn in;
  in.event_id = p.event_id;
  in.nargs = static_cast<std::int32_t>(
      std::min<std::size_t>(p.args.size(), kMaxArgs));
  in.now_ns = node_.node().sim().now();
  in.self_id = node_.self();
  for (std::int32_t i = 0; i < in.nargs; ++i) in.args[i] = p.args[i];

  const std::int32_t n =
      prog_->module().run_one(array_ptrs_.data(), in, gen_buf_.data());
  const ir::ProgramIR& ir = prog_->ir();
  for (std::int32_t g = 0; g < n; ++g) {
    const GenOut& go = gen_buf_[static_cast<std::size_t>(g)];
    sched::GenEvent ev;
    ev.event_id = go.event_id;
    ev.args.assign(go.args, go.args + go.nargs);
    ev.delay_ns = go.delay_ns;
    ev.location = go.location;
    ev.multicast = go.multicast != 0;
    if (go.group >= 0) {
      ev.members = ir.groups[static_cast<std::size_t>(go.group)].members;
    }
    if (go.event_id >= 0 &&
        static_cast<std::size_t>(go.event_id) < gen_count_by_id_.size()) {
      ++gen_count_by_id_[static_cast<std::size_t>(go.event_id)];
    }
    node_.generate(std::move(ev));
  }
}

const RunStats& Runtime::stats() const {
  build_run_stats(prog_->ir(), exec_count_by_id_, gen_count_by_id_,
                  total_executions_, &stats_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Replica (decoupled)
// ---------------------------------------------------------------------------

Replica::Replica(std::shared_ptr<const Program> prog, ReplicaConfig cfg)
    : prog_(std::move(prog)), cfg_(cfg) {
  const ir::ProgramIR& ir = prog_->ir();
  cells_.reserve(ir.arrays.size());
  for (const auto& arr : ir.arrays) {
    cells_.emplace_back(static_cast<std::size_t>(arr.size), 0);
  }
  array_ptrs_.reserve(cells_.size());
  for (auto& c : cells_) array_ptrs_.push_back(c.data());
  has_handler_by_id_.assign(ir.events.size(), 0);
  exec_count_by_id_.assign(ir.events.size(), 0);
  gen_count_by_id_.assign(ir.events.size(), 0);
  for (const auto& ev : ir.events) {
    if (ev.has_handler) {
      has_handler_by_id_[static_cast<std::size_t>(ev.event_id)] = 1;
    }
  }
  recirc_ = RPort{cfg_.switch_cfg.recirc_rate_gbps,
                  cfg_.switch_cfg.recirc_latency_ns, 0, 0, 0};
  front_ = RPort{cfg_.switch_cfg.front_rate_gbps, 0, 0, 0, 0};
  gen_stride_ = std::max<std::int32_t>(prog_->module().max_gens(), 1);
  if (cfg_.shard_id >= 0) {
    const obs::Labels labels{{"shard", std::to_string(cfg_.shard_id)}};
    auto& reg = obs::Registry::global();
    shard_packets_ = &reg.counter(
        "lucid_native_shard_packets_total", labels,
        "Packets executed per replica-fleet shard");
    shard_batch_size_ = &reg.histogram(
        "lucid_native_shard_batch_size", labels,
        "Same-timestamp packets drained per event-loop batch, by shard");
    shard_queue_depth_ = &reg.gauge(
        "lucid_native_shard_queue_depth", labels,
        "In-flight heap + pending injections at the last run boundary");
  }
  // EventScheduler's constructor starts the PFC stream synchronously at
  // t=0, before any injection closures are registered — mirror that order.
  if (cfg_.sched.mode == sched::DelayMode::PausableQueue) pfc_tick();
}

std::int32_t Replica::alloc_slot() {
  if (!free_.empty()) {
    const std::int32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::int32_t>(pool_.size() - 1);
}

void Replica::release_slot(std::int32_t idx) { free_.push_back(idx); }

void Replica::push_idx(sim::Time t, Kind kind, std::int32_t idx) {
  Entry e;
  e.t = std::max(t, now_);  // Simulator::at clamps to now
  e.seq = next_seq_++;
  e.kind = kind;
  e.pkt = idx;
  heap_.push(e);
}

void Replica::push(sim::Time t, Kind kind) { push_idx(t, kind, -1); }

void Replica::push(sim::Time t, Kind kind, const RPacket& pkt) {
  const std::int32_t idx = alloc_slot();
  pool_[static_cast<std::size_t>(idx)] = pkt;
  push_idx(t, kind, idx);
}

bool Replica::make_packet(const std::string& event,
                          std::vector<std::int64_t>& args,
                          RPacket* out) const {
  const ir::EventInfo* ev = validate_event(prog_->ir(), event, args);
  if (ev == nullptr) return false;
  out->event_id = ev->event_id;
  out->nargs = static_cast<std::int32_t>(args.size());
  for (std::int32_t i = 0; i < out->nargs; ++i) out->args[i] = args[i];
  out->size_bytes =
      std::max<int>(64, 34 + 4 * static_cast<int>(args.size()));
  return true;
}

bool Replica::schedule_inject(sim::Time t, const std::string& event,
                              std::vector<std::int64_t> args,
                              sim::Time delay_ns, std::int64_t location) {
  RPacket p;
  if (!make_packet(event, args, &p)) return false;
  p.location = location;
  p.created = t;  // to_packet stamps creation when the closure fires, == t
  p.due = t + delay_ns;
  const sim::Time at = std::max(t, now_);
  if (!pending_.empty() && at < pending_.back().t) {
    // Out-of-order registration: keep the sorted fast path intact and let
    // the heap order this one (seq still allocated here, at registration).
    push(at, Kind::Inject, p);
    return true;
  }
  PendingInject pi;
  pi.t = at;
  pi.seq = next_seq_++;
  pi.pkt = p;
  pending_.push_back(pi);
  return true;
}

void Replica::pfc_tick() {
  // Mirror of Switch::pfc_tick: the (unpause, pause) pair costs recirc
  // bandwidth; three sim entries allocated in this order.
  RPacket frame;  // minimum-size PFC frame: 64B -> 84 wire bytes
  push(recirc_.send(now_, frame.wire_bytes()), Kind::PfcOpen);
  push(now_ + cfg_.sched.release_window_ns, Kind::PfcPauseSend);
  push(now_ + cfg_.sched.release_interval_ns, Kind::PfcTick);
}

void Replica::recirculate(const RPacket& p) {
  ++stats_.recirculations;
  push(recirc_.send(now_, p.wire_bytes()), Kind::RecircDeliver, p);
}

void Replica::route_out(const RPacket& p) {
  // Front-port serialization is accounted, but the delivery entry is not
  // pushed: in a single-node topology the network drops it (no side
  // effects), and skipping an allocation-sequence element preserves the
  // relative (t, seq) order of everything else.
  ++stats_.forwarded;
  (void)front_.send(now_, p.wire_bytes());
}

void Replica::dispatch_gen(const GenOut& g) {
  if (g.event_id >= 0 &&
      static_cast<std::size_t>(g.event_id) < gen_count_by_id_.size()) {
    ++gen_count_by_id_[static_cast<std::size_t>(g.event_id)];
  }
  RPacket p;
  p.event_id = g.event_id;
  p.nargs = g.nargs;
  for (std::int32_t i = 0; i < g.nargs; ++i) p.args[i] = g.args[i];
  p.size_bytes = std::max<int>(64, 34 + 4 * g.nargs);
  p.created = now_;
  p.due = now_ + g.delay_ns;

  const int self = cfg_.switch_cfg.id;
  const ir::ProgramIR& ir = prog_->ir();
  const std::vector<std::int64_t>* members =
      g.multicast != 0 && g.group >= 0
          ? &ir.groups[static_cast<std::size_t>(g.group)].members
          : nullptr;
  if (members != nullptr && !members->empty()) {
    // Multicast engine: one unicast clone per member, in member order.
    for (const std::int64_t member : *members) {
      RPacket clone = p;
      clone.location = member;
      if (member == self) {
        recirculate(clone);
      } else {
        route_out(clone);
      }
    }
    return;
  }
  if (g.location >= 0 && g.location != self) {
    p.location = g.location;
    route_out(p);
    return;
  }
  p.location = -1;
  recirculate(p);
}

void Replica::run_until(sim::Time t) {
  // Merge by (t, seq): the sorted pending-injection vector, the sorted
  // pipeline-pass FIFO, and the in-flight heap. Seq numbers were allocated
  // in registration/fire order on all three sides, so the merged order is
  // exactly the order one big heap would produce — but the heap stays a
  // handful of entries deep and the two hot sources pop in O(1).
  const sim::Time pipe_ns = cfg_.switch_cfg.pipeline_latency_ns;
  for (;;) {
    enum class Src : std::uint8_t { kNone, kPending, kPass, kHeap };
    Src src = Src::kNone;
    sim::Time bt = 0;
    std::uint64_t bs = 0;
    if (pending_head_ < pending_.size()) {
      src = Src::kPending;
      bt = pending_[pending_head_].t;
      bs = pending_[pending_head_].seq;
    }
    if (pass_head_ < pass_q_.size()) {
      const PassEntry& fe = pass_q_[pass_head_];
      if (src == Src::kNone || fe.t < bt || (fe.t == bt && fe.seq < bs)) {
        src = Src::kPass;
        bt = fe.t;
        bs = fe.seq;
      }
    }
    if (!heap_.empty()) {
      const Entry& h = heap_.top();
      if (src == Src::kNone || h.t < bt || (h.t == bt && h.seq < bs)) {
        src = Src::kHeap;
        bt = h.t;
        bs = h.seq;
      }
    }
    if (src == Src::kNone || bt > t) break;
    now_ = bt;
    if (src == Src::kPending) {
      // deliver_to_ingress: one pipeline pass of latency, then dispatch.
      // Bulk transfer: every pending injection due at now_ whose seq
      // precedes the other same-t sources moves to the pass FIFO in one
      // tight loop instead of re-running the three-way merge per packet.
      // The stop key computed once holds for the whole run: the heap is
      // untouched here, and pass_push only appends strictly larger (t, seq)
      // keys behind the FIFO front.
      std::uint64_t stop_seq = std::numeric_limits<std::uint64_t>::max();
      if (!heap_.empty() && heap_.top().t == now_) stop_seq = heap_.top().seq;
      if (pass_head_ < pass_q_.size()) {
        const PassEntry& fe = pass_q_[pass_head_];
        if (fe.t == now_ && fe.seq < stop_seq) stop_seq = fe.seq;
      }
      while (pending_head_ < pending_.size()) {
        const PendingInject& p = pending_[pending_head_];
        if (p.t != now_ || p.seq >= stop_seq) break;
        pass_push(now_ + pipe_ns, static_cast<std::int32_t>(pending_head_),
                  /*from_pool=*/false);
        ++pending_head_;
      }
      continue;
    }
    if (src == Src::kPass) {
      drain_passes();
      continue;
    }
    const Entry e = heap_.top();
    heap_.pop();
    switch (e.kind) {
      case Kind::Inject:
      case Kind::RecircDeliver:
        // deliver_to_ingress: one pipeline pass of latency, then dispatch.
        // The slot stays allocated until the drain consumes the pass.
        pass_push(now_ + pipe_ns, e.pkt, /*from_pool=*/true);
        break;
      case Kind::PfcOpen:
        delay_open_ = true;
        // Drain FIFO through the recirculation port (set_delay_queue_open).
        while (delay_head_ < delay_queue_.size()) {
          recirculate(delay_queue_[delay_head_++]);
        }
        delay_queue_.clear();
        delay_head_ = 0;
        break;
      case Kind::PfcClose:
        delay_open_ = false;
        break;
      case Kind::PfcPauseSend: {
        RPacket frame;
        push(recirc_.send(now_, frame.wire_bytes()), Kind::PfcClose);
        break;
      }
      case Kind::PfcTick:
        pfc_tick();
        break;
    }
  }
  now_ = std::max(now_, t);
  compact_pending();
  // Batch-boundary metrics publish: the event loop above runs branch-free
  // with respect to observability; executions accumulate in plain counters
  // and the delta lands in the process-wide registry once per run_until.
  static obs::Counter& executed = obs::Registry::global().counter(
      "lucid_native_replica_executions_total",
      "Handler executions across native replica runs");
  executed.add(total_executions_ - published_executions_);
  published_executions_ = total_executions_;
  if (shard_packets_ != nullptr) {
    shard_packets_->add(stats_.executed - published_shard_executed_);
    published_shard_executed_ = stats_.executed;
    shard_queue_depth_->set(static_cast<std::int64_t>(
        heap_.size() + (pending_.size() - pending_head_) +
        (pass_q_.size() - pass_head_)));
  }
}

void Replica::pass_push(sim::Time t, std::int32_t idx, bool from_pool) {
  PassEntry e;
  e.t = std::max(t, now_);  // Simulator::at clamps to now
  e.seq = next_seq_++;
  e.idx = idx;
  e.from_pool = from_pool;
  pass_q_.push_back(e);
}

void Replica::drain_passes() {
  // Multi-packet drain: consume the run of pipeline passes finishing at
  // exactly now_, classifying each in arrival order and grouping the
  // consecutive *executing* packets into one run_batch call. Correct
  // because (a) a heap entry with a seq inside the run (PFC open/close
  // flips delay_open_, deliveries allocate seqs) would have interleaved in
  // merged order, so it stops the drain, (b) same for a pending injection,
  // and (c) everything this drain generates lands strictly after now_
  // (recirc serialization is >= 1 ns), so the drained set can't be
  // invalidated by its own side effects. Every other disposition
  // (route-out, delay, recirculate) has side effects on the ports / the
  // seq sequence, so the pending execution sub-run is flushed first —
  // which keeps all port sends and seq allocations in exactly the order
  // dispatching each pass on its own would produce (and the reference
  // simulator does).
  const int self = cfg_.switch_cfg.id;
  std::uint64_t drained = 0;
  batch_in_.clear();
  // The stop key against the other two sources, computed once: pendings
  // don't change mid-drain, and the heap pushes this drain performs
  // (recirculations, generates) always allocate strictly larger (t, seq)
  // keys than every pass already queued, so neither source can slip in
  // front of a remaining pass after the drain starts.
  std::uint64_t stop_seq = std::numeric_limits<std::uint64_t>::max();
  if (!heap_.empty() && heap_.top().t == now_) stop_seq = heap_.top().seq;
  if (pending_head_ < pending_.size()) {
    const PendingInject& pi = pending_[pending_head_];
    if (pi.t == now_ && pi.seq < stop_seq) stop_seq = pi.seq;
  }
  while (pass_head_ < pass_q_.size()) {
    const PassEntry fe = pass_q_[pass_head_];
    if (fe.t != now_ || fe.seq >= stop_seq) break;
    // Classification reads the packet in its existing storage — the
    // consumed pending prefix or its pool slot — copy-free on the hot
    // (execute) path. The rare non-execute paths copy out first: their
    // flush can grow pool_ under the reference, and recirculate must not
    // alias a slot anyway.
    const RPacket& p = fe.from_pool
                           ? pool_[static_cast<std::size_t>(fe.idx)]
                           : pending_[static_cast<std::size_t>(fe.idx)].pkt;
    ++pass_head_;
    ++drained;
    if (p.location >= 0 && p.location != self) {
      const RPacket pkt = p;
      if (fe.from_pool) release_slot(fe.idx);
      flush_exec_batch();
      route_out(pkt);
      continue;
    }
    if (now_ < p.due) {
      const RPacket pkt = p;
      if (fe.from_pool) release_slot(fe.idx);
      flush_exec_batch();
      if (cfg_.sched.mode == sched::DelayMode::BaselineRecirculation ||
          delay_open_) {
        recirculate(pkt);
      } else {
        ++stats_.delayed_enqueues;
        delay_queue_.push_back(pkt);
      }
      continue;
    }
    ++stats_.executed;
    if (p.due > p.created) ++stats_.delay_samples;
    const auto id = static_cast<std::size_t>(p.event_id);
    if (p.event_id < 0 || id >= has_handler_by_id_.size() ||
        has_handler_by_id_[id] == 0) {
      // No handler: counted, no state effects, nothing to flush.
      if (fe.from_pool) release_slot(fe.idx);
      continue;
    }
    ++total_executions_;
    ++exec_count_by_id_[id];
    PacketIn in;
    in.event_id = p.event_id;
    in.nargs = p.nargs;
    in.now_ns = now_;
    in.self_id = self;
    for (std::int32_t i = 0; i < p.nargs; ++i) in.args[i] = p.args[i];
    batch_in_.push_back(in);
    if (fe.from_pool) release_slot(fe.idx);
  }
  flush_exec_batch();
  // Fully drained is the common case (bursty traffic with gaps wider than
  // the pipeline latency) — reset the FIFO in O(1) so it never grows past
  // the in-flight high-water mark within one run_until.
  if (pass_head_ == pass_q_.size()) {
    pass_q_.clear();
    pass_head_ = 0;
  }
  if (shard_batch_size_ != nullptr) {
    shard_batch_size_->observe(static_cast<double>(drained));
  }
}

void Replica::flush_exec_batch() {
  if (batch_in_.empty()) return;
  const auto n = static_cast<std::int32_t>(batch_in_.size());
  const std::size_t out_need =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(gen_stride_);
  if (batch_out_.size() < out_need) batch_out_.resize(out_need);
  if (batch_counts_.size() < static_cast<std::size_t>(n)) {
    batch_counts_.resize(static_cast<std::size_t>(n));
  }
  // The raw batch loop: packets in order, each straight through its
  // handler's entry, so state is byte-identical to sequential one-packet
  // calls — the contract NativeBatchApps.BatchMatchesSequentialRunOne pins
  // on every app (tests/test_native.cpp).
  prog_->module().run_batch_raw(array_ptrs_.data(), batch_in_.data(), n,
                                batch_out_.data(), batch_counts_.data());
  // Generated events dispatch per packet, in packet order — the same
  // interleaving the sequential loop produces (packet i's generates all
  // precede packet i+1's).
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t gens = batch_counts_[static_cast<std::size_t>(i)];
    const GenOut* out =
        batch_out_.data() + static_cast<std::size_t>(i) *
                                static_cast<std::size_t>(gen_stride_);
    for (std::int32_t g = 0; g < gens; ++g) dispatch_gen(out[g]);
  }
  batch_in_.clear();
}

void Replica::compact_pending() {
  // Erase the consumed prefix once it dominates the vector; amortized O(1)
  // per injection, and the capacity shrinks back once a soak run's transient
  // backlog has drained, so footprint tracks the *live* pending set. Live
  // pass entries index into the consumed pending prefix, so compaction must
  // wait until the FIFO has fully drained (the common case at a run
  // boundary — drain_passes resets it to empty).
  if (pass_head_ == pass_q_.size() &&
      pending_head_ >= kPendingCompactThreshold &&
      pending_head_ * 2 >= pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() +
                       static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
    if (pending_.capacity() > kPendingCompactThreshold * 4 &&
        pending_.size() * 4 < pending_.capacity()) {
      pending_.shrink_to_fit();
    }
  }
  // Same discipline for the pipeline-pass FIFO.
  if (pass_head_ >= kPendingCompactThreshold &&
      pass_head_ * 2 >= pass_q_.size()) {
    pass_q_.erase(pass_q_.begin(),
                  pass_q_.begin() + static_cast<std::ptrdiff_t>(pass_head_));
    pass_head_ = 0;
    if (pass_q_.capacity() > kPendingCompactThreshold * 4 &&
        pass_q_.size() * 4 < pass_q_.capacity()) {
      pass_q_.shrink_to_fit();
    }
  }
}

bool Replica::control_write(std::size_t decl_index, std::int64_t index,
                            std::int64_t value) {
  if (decl_index >= cells_.size()) return false;
  auto& cells = cells_[decl_index];
  const auto n = static_cast<std::int64_t>(cells.size());
  std::int64_t i = index % n;
  if (i < 0) i += n;
  const ir::ArrayInfo& arr = prog_->ir().arrays[decl_index];
  cells[static_cast<std::size_t>(i)] = mask_width(value, arr.width);
  return true;
}

std::int64_t Replica::control_read(std::size_t decl_index,
                                   std::int64_t index) const {
  if (decl_index >= cells_.size()) return 0;
  const auto& cells = cells_[decl_index];
  const auto n = static_cast<std::int64_t>(cells.size());
  std::int64_t i = index % n;
  if (i < 0) i += n;
  return cells[static_cast<std::size_t>(i)];
}

const RunStats& Replica::run_stats() const {
  build_run_stats(prog_->ir(), exec_count_by_id_, gen_count_by_id_,
                  total_executions_, &run_stats_);
  return run_stats_;
}

}  // namespace lucid::native
