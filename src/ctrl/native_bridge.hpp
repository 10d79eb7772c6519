// DataPlane adapter over the native replica fleet (native/fleet.hpp), the
// sibling of interp_bridge.hpp. The register access and the event check are
// RegisterDataPlane's (ctrl/control_plane.hpp), shared with the
// interpreter's adapter; ControlPlane, its batching model and its
// apply-point discipline are reused unchanged.
#pragma once

#include <string>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "native/fleet.hpp"

namespace lucid::ctrl {

/// DataPlane over a sharded native::ReplicaFleet. Control tables are
/// *replicated*: a write lands in every shard's register file (each masks
/// and wraps identically, so replicas agree), while flow state stays
/// sharded — the same split a multi-pipe hardware deployment makes between
/// control-plane-installed entries and per-pipe registers. Reads come from
/// shard 0, which is authoritative for control-written cells; cells the
/// data path also writes may differ per shard, and callers who care read
/// the shards directly. Control events take the switch-CPU path on the
/// shard their flow routes to (ReplicaFleet::inject_control), like the
/// interpreter's.
///
/// Known gap, kept on purpose: ControlPlane::apply_one stalls its
/// scheduler's switch, here the side scheduler's, so a shard's data path
/// never waits out a commit. Stalling the shards would change fleet timing,
/// and bench_e2e's churn check replays each shard on a stall-free Replica;
/// the single timing core (ROADMAP) is where stall_pipeline moves.
///
/// Thread discipline: the ControlPlane applies batches at its scheduler's
/// apply points, and fleet shard state may only be touched while no
/// ReplicaFleet::run_until is in flight — drive the control scheduler and
/// the fleet from the same thread, alternating slices (the TSan-labeled
/// fleet test in tests/test_native.cpp races exactly this arrangement
/// against concurrent submitters).
class FleetDataPlane final : public RegisterDataPlane {
 public:
  explicit FleetDataPlane(native::ReplicaFleet& fleet)
      : RegisterDataPlane(fleet.program().ir(), shard_files(fleet)),
        fleet_(fleet) {}

  bool inject_event(const std::string& event, std::vector<Value> args,
                    sim::Time delay_ns) override {
    return fleet_.inject_control(event, std::move(args), delay_ns);
  }

 private:
  static std::vector<pisa::RegisterFile*> shard_files(
      native::ReplicaFleet& fleet) {
    std::vector<pisa::RegisterFile*> files;
    for (int s = 0; s < fleet.shards(); ++s) {
      files.push_back(&fleet.shard(static_cast<std::size_t>(s)).registers());
    }
    return files;
  }

  native::ReplicaFleet& fleet_;
};

}  // namespace lucid::ctrl
