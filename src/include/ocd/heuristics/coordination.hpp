// Cross-shard planning coordination for the kGlobal policies.
//
// The sharded runtime can run the local heuristics by unioning
// independent per-shard decisions, but a coordinated planner makes
// cross-vertex choices: its decision reads possession and demand at
// vertices other shards own.  Every shard reads the same shared step
// view, so the plan phase gains one pool barrier instead: every shard
// first elects its slice of the decision, then, once all slices exist,
// reads its peers' slices in place and absorbs them into one and the
// same decision — so the merged schedule stays bit-identical to the
// single-process planner.
//
// Bandwidth is the one implementer: its per-token relay election is
// sliced by token, one election round per step, and the slices are
// exact, so the merge never needs a fallback.  Global is not sharded
// (shard::run_sharded refuses it): its greedy couples every pick to
// every earlier one, and no summary of it beat one shard.
#pragma once

#include <cstdint>
#include <span>

#include "ocd/core/instance.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

/// Static facts about the shard layout, handed to a coordinator once
/// per run (after Policy::reset).  Spans borrow the runtime's storage
/// and must outlive the coordinated run.
struct CoordinationSetup {
  const core::Instance* instance = nullptr;
  /// vertex id -> owning shard, over all vertices.
  std::span<const std::int32_t> shard_of;
  std::int32_t shard = 0;       ///< this coordinator's shard id
  std::int32_t num_shards = 1;  ///< total shards in the run
};

/// Interface a kGlobal policy implements to run under shard::run_sharded.
/// Per step the runtime calls, with a pool barrier after step 1:
///   1. coord_prescore  — elect the shard's slice of the decision into
///      elected(), reading only the step-start view.
///   2. coord_absorb    — merge every shard's elected slice; every
///      shard ends up with the identical decision.
///   3. coord_emit      — emit the owned arcs' share of that decision
///      into the plan, in arc-ascending order.
/// Any per-step randomness must be drawn exactly as plan_step would
/// draw it, so the policy state stays in lockstep with the
/// single-process run.
class ShardCoordinator {
 public:
  virtual ~ShardCoordinator() = default;

  virtual void begin_coordination(const CoordinationSetup& setup) = 0;

  /// The slice the last coord_prescore elected.  The reference stays
  /// valid for the whole run; peers read it between the barrier and the
  /// next coord_prescore, during which it does not change.
  [[nodiscard]] virtual const util::TokenMatrix& elected() const = 0;

  /// Elects the shard's slice of this step's decision into elected().
  virtual void coord_prescore(const sim::StepView& view) = 0;

  /// Merges every shard's elected slice, this shard's included
  /// (`slices` holds one per shard, in shard order).
  virtual void coord_absorb(
      std::span<const util::TokenMatrix* const> slices) = 0;

  /// Emits the owned share of the merged decision.  The runtime merges
  /// the shards' plans by arc id, which must reproduce the plan_step
  /// send order.
  virtual void coord_emit(const sim::StepView& view,
                          sim::StepPlan& plan) = 0;
};

}  // namespace ocd::heuristics
