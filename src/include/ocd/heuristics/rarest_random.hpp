// Local (§5.1): rarest-random with request subdivision.
//
// "Rarest random is often used in multicast flooding because, by
//  diversifying the set of tokens known by various vertices, they can
//  share them with each other for increased bandwidth... our heuristic
//  subdivides a vertex's needs to their peers.  This is analogous to a
//  request for blocks... we distribute both aggregates of what vertices
//  want and what they do not have."
//
// Knowledge class kLocalAggregate: per-peer possession snapshots plus
// the per-step global aggregate vectors (rarity and need).  Each
// timestep runs in two conceptually-distributed passes:
//   1. every vertex partitions the tokens it lacks among its in-arcs
//      (a block request), rarest tokens first, wanted tokens before
//      flood tokens, at most `capacity` requests per arc;
//   2. every sender transmits exactly the requested tokens.
#pragma once

#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/rarity.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

class RarestRandomPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "local"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kLocalAggregate;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;
  /// Sharded entry point: identical per-receiver decisions restricted
  /// to the owned vertices.  Bit-identity with plan_step holds because
  /// (a) the shared rank order consumes exactly one shuffle per step on
  /// every shard, (b) a receiver's request subdivision reads and writes
  /// only its own in-arc budgets/rows (in-arc sets of distinct
  /// receivers are disjoint), and (c) emission is arc-ascending, so
  /// disjoint per-shard fragments merge back into plan_step's order.
  void plan_shard(const sim::StepView& view, sim::StepPlan& plan,
                  std::span<const VertexId> owned) override;

 private:
  /// Pass-1 body for one receiver: subdivide the tokens `v` lacks into
  /// per-in-arc request rows, spending the arcs' budgets.
  void plan_receiver(VertexId v, const sim::StepView& view);
  /// Shared per-step prologue (rank order + request/budget reset) and
  /// epilogue (arc-ascending emission, idle mark).
  void begin_plan(const sim::StepView& view);
  void emit_requests(const sim::StepView& view, sim::StepPlan& plan);

  Rng rng_{1};
  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix requests_;  ///< per-arc request sets
  util::TokenMatrix offered_;   ///< per-in-arc offers (max in-degree rows)
  std::vector<std::int32_t> budget_;
  TokenSet offered_any_;
  TokenSet wanted_;
  TokenSet ranked_offered_;
  TokenSet ranked_wanted_;
  TokenSet wanted_pool_;
  TokenSet flood_pool_;
};

}  // namespace ocd::heuristics
