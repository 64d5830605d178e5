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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ocd/heuristics/coordination.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/util/rarity.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

class GlobalGreedyPolicy final : public sim::Policy, public ShardCoordinator {
 public:
  [[nodiscard]] std::string_view name() const override { return "global"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;
  void save_state(util::BinStream& out) const override;
  void load_state(util::BinStream& in) override;

  // Sharded coordination (ocd/heuristics/coordination.hpp): the owned
  // arcs are pre-scored into top-k (wanted, flood) rank lists; every
  // shard replays the same wave merge over the union, falling back to
  // the exact serial rescan whenever a merge step would need a
  // candidate beyond the summarized horizon.
  void begin_coordination(const CoordinationSetup& setup) override;
  [[nodiscard]] std::int64_t coord_prescore(const sim::StepView& view,
                                            std::string& frame) override;
  bool coord_absorb(const sim::StepView& view,
                    std::span<const std::string> frames) override;
  void coord_emit(const sim::StepView& view, sim::StepPlan& plan,
                  std::vector<std::int64_t>& ordinals) override;

 private:
  /// Everything plan_step does after the per-step rarity assignment:
  /// rank-space row rebuilds, the candidate/outstanding scaffolding and
  /// the wave loop.  `grant(arc, rank)` is invoked for every pick in
  /// the exact serial order; plan_step sends each pick, the
  /// coordinator's fallback records the owned ones with their global
  /// first-touch ordinals.
  template <typename Grant>
  void plan_waves(const sim::StepView& view, Grant&& grant);

  Rng rng_{1};
  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix ranked_poss_;   ///< per-vertex possession, rank space
  util::TokenMatrix candidates_;    ///< per-arc (tail has, head lacks)
  util::TokenMatrix outstanding_;   ///< per-vertex wants still missing
  std::vector<std::int32_t> remaining_;
  std::vector<std::int32_t> grant_count_;
  TokenSet full_;     ///< all-ones mask, built once per reset
  TokenSet wave_ok_;  ///< ranks whose grant count is still <= wave
  TokenSet capped_;
  std::vector<ArcId> active_;
  std::vector<char> asleep_;  ///< capped arcs sleep until a wave relax

  // ---- sharded coordination state (idle in single-process runs) ----
  /// One summarized candidate arc: the k smallest wanted/flood ranks of
  /// its step-start candidate set (slices of list_ranks_) plus
  /// beyond-horizon flags.  cand_now = cand_0 minus the ranks granted
  /// to the head, so a listed rank is valid iff it is ungranted and
  /// uncapped — the exactness argument lives in coord_absorb.
  struct WaveEntry {
    ArcId arc = 0;
    VertexId head = 0;
    std::int32_t w_begin = 0, w_end = 0;  ///< wanted ranks, ascending
    std::int32_t f_begin = 0, f_end = 0;  ///< flood ranks, ascending
    bool more_w = false, more_f = false;  ///< ranks beyond the horizon
    bool asleep = false;
    std::int32_t remaining = 0;
    std::int64_t ordinal = -1;  ///< global first-touch slot, -1 untouched
  };
  struct CoordPick {
    ArcId arc;
    TokenId rank;
    std::int64_t ordinal;
  };

  CoordinationSetup coord_{};
  std::vector<char> arc_owned_;     ///< arc tail owned by this shard
  std::vector<ArcId> owned_arcs_;   ///< ascending
  std::vector<VertexId> touched_;   ///< endpoints of owned arcs, unique
  util::TokenMatrix granted_;       ///< per-head ranks granted in merge
  std::vector<char> head_dirty_;
  std::vector<VertexId> dirty_heads_;
  std::vector<WaveEntry> entries_;  ///< own summary, then decoded peers
  std::vector<TokenId> list_ranks_;
  std::vector<std::size_t> merge_active_;
  std::vector<CoordPick> picks_;    ///< owned grants of the merged step
  std::vector<std::int64_t> ord_of_arc_;  ///< fallback first-touch scan
  TokenSet cand_scratch_;
  TokenSet flood_scratch_;
  std::size_t own_entries_ = 0;  ///< entries_ prefix from coord_prescore
  bool own_any_ = false;         ///< local `anything` ORed into the merge
};

}  // namespace ocd::heuristics
