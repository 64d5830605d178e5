// Cross-shard planning coordination for the kGlobal policies.
//
// The sharded runtime can run the local heuristics by unioning
// independent per-shard decisions, but a coordinated planner makes
// cross-vertex choices: its decision reads possession and demand at
// vertices other shards own.  The barrier therefore gains a *wave
// round* before the plan phase: every shard scores its slice of the
// decision into a frame, the frames are broadcast, and every shard
// absorbs them into one and the same replicated decision — so the
// merged schedule stays bit-identical to the single-process planner.
//
// Bandwidth is the one implementer: its per-token relay election is
// sliced by token, one election round per step, and the slices are
// exact, so the merge never needs a fallback.  Global is not sharded
// (shard::run_sharded refuses it): its greedy couples every pick to
// every earlier one, and no summary of it beat one shard.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "ocd/core/instance.hpp"
#include "ocd/sim/policy.hpp"

namespace ocd::heuristics {

/// Static facts about the shard layout, handed to a coordinator once
/// per run (after Policy::reset).  Spans borrow the runtime's storage
/// and must outlive the coordinated run.
struct CoordinationSetup {
  const core::Instance* instance = nullptr;
  /// vertex id -> owning shard, over all vertices.
  std::span<const std::int32_t> shard_of;
  std::int32_t shard = 0;       ///< this worker's shard id
  std::int32_t num_shards = 1;  ///< total shards in the run
};

/// Interface a kGlobal policy implements to run under shard::run_sharded.
/// Per step the runtime calls, in barrier order:
///   1. coord_prescore  — score the owned slice, emit the frame every
///      peer receives verbatim (the shard's own slice stays internal).
///   2. coord_absorb    — merge the peers' frames with the internal
///      slice; every shard ends up with the identical decision.
///   3. coord_emit      — emit the owned arcs' share of that decision
///      into the plan, in arc-ascending order.
/// Any per-step randomness must be drawn exactly as plan_step would
/// draw it, so the policy state stays in lockstep with the
/// single-process run.
class ShardCoordinator {
 public:
  virtual ~ShardCoordinator() = default;

  virtual void begin_coordination(const CoordinationSetup& setup) = 0;

  /// Scores the shard's owned slice of this step's decision into
  /// `frame` (overwritten) and returns the number of summary entries
  /// it carries, for the RunStats accounting.
  [[nodiscard]] virtual std::int64_t coord_prescore(const sim::StepView& view,
                                                    std::string& frame) = 0;

  /// Merges the peers' frames.  `frames` has one slot per shard in
  /// shard order; the own slot is ignored (the internal slice from
  /// coord_prescore stands in for it).
  virtual void coord_absorb(const sim::StepView& view,
                            std::span<const std::string> frames) = 0;

  /// Emits the owned share of the merged decision.  The fragment merge
  /// sorts each step's sends by arc id, which must reproduce the
  /// plan_step send order.
  virtual void coord_emit(const sim::StepView& view,
                          sim::StepPlan& plan) = 0;
};

}  // namespace ocd::heuristics
