// Policy interface: the decision procedure of an online heuristic.
#pragma once

#include <memory>
#include <string_view>

#include "ocd/core/schedule.hpp"
#include "ocd/sim/views.hpp"
#include "ocd/util/rng.hpp"

namespace ocd::util {
class BinStream;
}

namespace ocd::sim {

struct RunStats;

/// Mutable plan for one timestep.  Policies add sends; the simulator
/// validates them against capacity and possession afterwards, so a
/// buggy policy is caught rather than silently corrupting a run.
///
/// A StepPlan is an arena: its send slots (TokenSet storage included)
/// and arc-slot index persist across steps.  The simulator constructs
/// one plan per run and calls rebind() each step, which clears the
/// previous step's sends in O(sends) without freeing anything, so the
/// steady-state planning loop performs no heap allocation.
class StepPlan {
 public:
  StepPlan() = default;
  explicit StepPlan(const Digraph& graph);
  /// With per-step effective capacities (dynamics); remaining_capacity
  /// then reports against the effective values.
  StepPlan(const Digraph& graph,
           std::span<const std::int32_t> effective_capacity);

  /// Re-targets the plan at (graph, effective_capacity) and clears it
  /// for a new step.  All storage — send pool, bitsets, arc index — is
  /// reused; only a first-time bind (or a larger graph) allocates.
  void rebind(const Digraph& graph,
              std::span<const std::int32_t> effective_capacity);

  /// Adds tokens to an arc's send set.
  void send(ArcId arc, TokenSetView tokens);
  void send(ArcId arc, TokenId token, std::size_t universe);

  /// Capacity still unclaimed on `arc` within this plan.
  [[nodiscard]] std::int32_t remaining_capacity(ArcId arc) const;

  /// Declares an intentionally empty timestep (e.g. the knowledge-
  /// flooding phase of the §4.2 two-phase algorithm).  Without this
  /// mark, an empty plan with outstanding wants is reported as a
  /// stalled policy.
  void mark_idle() noexcept { idle_ = true; }
  [[nodiscard]] bool idle_marked() const noexcept { return idle_; }

  [[nodiscard]] bool empty() const noexcept { return used_ == 0; }

  /// The planned sends, in first-touch arc order.  The spans borrow the
  /// pool: valid until the next rebind().  The mutable overload lets
  /// the simulator trim lost tokens in place before recording.
  [[nodiscard]] std::span<const core::ArcSend> sends() const noexcept {
    return {pool_.data(), used_};
  }
  [[nodiscard]] std::span<core::ArcSend> sends() noexcept {
    return {pool_.data(), used_};
  }

  /// Copies the planned sends out as an owning Timestep (allocates;
  /// used by schedule recording and adapter-style callers, not by the
  /// simulator hot loop).  Empty send sets are skipped.
  [[nodiscard]] core::Timestep take() const;

 private:
  core::ArcSend& acquire_slot(ArcId arc);

  const Digraph* graph_ = nullptr;
  std::span<const std::int32_t> effective_capacity_;
  /// Persistent send pool; the first used_ entries are this step's plan.
  /// Slots beyond used_ hold retired TokenSet storage awaiting reuse.
  std::vector<core::ArcSend> pool_;
  std::size_t used_ = 0;
  /// arc -> index into pool_, -1 when absent.  Keeps send() and
  /// remaining_capacity() O(1) instead of scanning the send list — the
  /// scan is quadratic for policies that touch every arc each step.
  std::vector<std::int32_t> arc_slot_;
  bool idle_ = false;
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual KnowledgeClass knowledge_class() const = 0;

  /// Called once before a run.  `seed` derives any internal randomness.
  virtual void reset(const core::Instance& instance, std::uint64_t seed);

  /// Plans one timestep.  The default implementation calls plan_vertex
  /// for every vertex — the shape of a genuinely distributed algorithm;
  /// coordinated policies (Global) may override plan_step wholesale.
  virtual void plan_step(const StepView& view, StepPlan& plan);

  /// Per-vertex decision: fill sends for `self`'s out-arcs.
  virtual void plan_vertex(VertexId self, const StepView& view,
                           StepPlan& plan);

  /// Plans one timestep for a subset of vertices — the sharded
  /// runtime's entry point.  `owned` is sorted ascending and lists the
  /// vertices this shard decides for; the view may be shard-local (see
  /// StepView::set_row_map) but must cover every owned vertex and its
  /// neighbors.  The contract that makes sharding bit-identical: the
  /// union of plan_shard over a partition of the vertex set must plan,
  /// per vertex, exactly the sends plan_step would.  The default —
  /// plan_vertex over `owned` in order — satisfies this for any policy
  /// whose per-vertex decisions are independent; policies that override
  /// plan_step with cross-vertex coordination must either override this
  /// consistently or be refused by the shard runtime's envelope check.
  virtual void plan_shard(const StepView& view, StepPlan& plan,
                          std::span<const VertexId> owned);

  /// Called once by the simulator on every exit path, after the last
  /// step.  Adapters fold their private counters (congestion drops,
  /// retransmissions) into the run's stats here; wrappers must forward
  /// to their inner policy.  Default: no-op.
  virtual void finish_run(RunStats& stats);

  /// No-ops that no library code calls.  They remain only because
  /// perfbench's TimedPolicy overrides them; ROADMAP item 2's benchmark
  /// change deletes both together.
  virtual void save_state(util::BinStream& out) const;
  virtual void load_state(util::BinStream& in);
};

using PolicyPtr = std::unique_ptr<Policy>;

}  // namespace ocd::sim
