// Global (§5.1): the coordinated variant of the Local heuristic —
// "vertices have the ability to coordinate across each other at each
// timestep to ensure that they maximize diversity ... Our implementation
// of this technique applies a greedy selection algorithm over the set of
// tokens and edges, and is thus not guaranteed to maximize diversity."
//
// Knowledge class kGlobal with full per-step coordination: tokens are
// processed rarest-first; each (arc, token) assignment delivers the
// token to a vertex that does not have it and has not been granted it
// by another arc this step, so no capacity is wasted on duplicates.
// Wanted deliveries are assigned before pure diversity floods.
//
// Picks run in rank space (ocd/util/rarity.hpp).  Each step converts
// the whole possession matrix there by bit-block transposes, with no
// work per held token.  Wants are fixed for a run, so reset()
// transposes them into token columns once; a step reads those columns
// back in the step's rank order and subtracts ranked possession.
//
// Planner state is per vertex, not per arc: an arc's candidates are
// read as `ranked[tail] & ~held[head]`, where `held` starts as ranked
// possession and a grant sets one bit in its head's row.  Each wave's
// first pass visits every live arc; its later passes visit only the
// awake list, the arcs that picked in the pass before and kept
// capacity, so an arc whose candidates are all capped costs nothing
// until the next wave.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/rarity.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

/// Runs under sim::run only: the greedy couples every pick to every
/// other vertex's grants, so shard::run_sharded refuses it.
class GlobalGreedyPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "global"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;

 private:
  Rng rng_{1};
  /// The instance reset() saw; want_columns_ belong to it.
  const core::Instance* instance_ = nullptr;
  /// Token columns of every vertex's want set (RarityRanker::to_columns).
  std::vector<std::uint64_t> want_columns_;
  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix ranked_poss_;   ///< per-vertex possession, rank space
  util::TokenMatrix held_;  ///< ranked possession plus this step's grants
  util::TokenMatrix outstanding_;   ///< per-vertex wants still missing
  std::vector<std::int32_t> remaining_;  ///< per-arc capacity left
  std::vector<std::int32_t> grant_count_;
  TokenSet full_;     ///< all-ones mask, built once per reset
  TokenSet wave_ok_;  ///< ranks whose grant count is still <= wave
  TokenSet capped_;
  std::vector<ArcId> live_;   ///< arcs that may still pick, arc-id order
  std::vector<ArcId> awake_;  ///< arcs to visit in a wave's next pass
};

}  // namespace ocd::heuristics
