// DataPlane adapter over the native replica fleet (native/fleet.hpp), the
// sibling of interp_bridge.hpp. ControlPlane, its batching model and its
// apply-point discipline are reused unchanged.
#pragma once

#include <string>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "native/fleet.hpp"

namespace lucid::ctrl {

/// DataPlane over a sharded native::ReplicaFleet. Control tables are
/// *replicated*: a write is broadcast to every shard (each shard masks and
/// wraps identically, so replicas agree), while flow state stays sharded —
/// the same split a multi-pipe hardware deployment makes between
/// control-plane-installed entries and per-pipe registers. Reads come from
/// shard 0, which is authoritative for control-written cells; cells the
/// data path also writes may differ per shard, and callers who care read
/// the shards directly.
///
/// Thread discipline: the ControlPlane applies batches at its scheduler's
/// apply points, and fleet shard state may only be touched while no
/// ReplicaFleet::run_until is in flight — drive the control scheduler and
/// the fleet from the same thread, alternating slices (the TSan-labeled
/// fleet test in tests/test_native.cpp races exactly this arrangement
/// against concurrent submitters).
class FleetDataPlane final : public DataPlane {
 public:
  explicit FleetDataPlane(native::ReplicaFleet& fleet) : fleet_(fleet) {}

  [[nodiscard]] bool has_array(const std::string& name) const override {
    return slot_of(name) >= 0;
  }
  [[nodiscard]] std::int64_t array_size(
      const std::string& name) const override {
    const int slot = slot_of(name);
    if (slot < 0) return -1;
    return static_cast<std::int64_t>(
        fleet_.shard(0).array_cells(static_cast<std::size_t>(slot)).size());
  }
  bool write(const std::string& array, std::int64_t index,
             Value value) override {
    const int slot = slot_of(array);
    if (slot < 0) return false;
    bool ok = true;
    for (int s = 0; s < fleet_.shards(); ++s) {
      ok = fleet_.shard(static_cast<std::size_t>(s))
               .control_write(static_cast<std::size_t>(slot), index, value) &&
           ok;
    }
    return ok;
  }
  [[nodiscard]] Value read(const std::string& array,
                           std::int64_t index) const override {
    const int slot = slot_of(array);
    if (slot < 0) return 0;
    return fleet_.shard(0).control_read(static_cast<std::size_t>(slot),
                                        index);
  }
  [[nodiscard]] bool can_inject(const std::string& event,
                                std::size_t arity) const override {
    const ir::EventInfo* ev = fleet_.program().find_event(event);
    return ev != nullptr && ev->params.size() == arity;
  }
  bool inject_event(const std::string& event, std::vector<Value> args,
                    sim::Time delay_ns) override {
    // Control injections route like any other flow, scheduled relative to
    // the fleet clock (all shards agree on it between run slices).
    return fleet_.schedule_inject(fleet_.now() + delay_ns, event,
                                  std::move(args));
  }

 private:
  [[nodiscard]] int slot_of(const std::string& name) const {
    const auto& index = fleet_.program().ir().array_index;
    const auto it = index.find(name);
    return it == index.end() ? -1 : it->second;
  }

  native::ReplicaFleet& fleet_;
};

}  // namespace lucid::ctrl
