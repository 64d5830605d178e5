// Bandwidth (§5.1): an online heuristic with global knowledge that
// "more cautiously adds tokens to a move ... each vertex shall obtain
// from its peers in its next turn only tokens that it will eventually
// use": tokens it needs, or tokens for which it is the closest
// one-hop-knowledge vertex to a node that needs them (a one-hop-
// knowledge vertex could obtain the token in a single turn).
//
// Knowledge class kGlobal.  Each step we compute, per token, the needy
// set and the one-hop frontier, then a multi-source BFS elects for each
// needy node its nearest frontier vertex; only elected relays and needy
// nodes are allowed to receive the token.  Senders then fill arc
// capacity with allowed tokens, needs before relays, rarest first.
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

class BandwidthPolicy final : public sim::Policy, public ShardCoordinator {
 public:
  [[nodiscard]] std::string_view name() const override { return "bandwidth"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;

  // Sharded coordination (ocd/heuristics/coordination.hpp): the
  // per-token needy/frontier/witness elections are sliced by token
  // (token t belongs to shard t % num_shards); each shard scores its
  // slice, broadcasts the elected receiver sets, and the arc fill then
  // runs per shard over its owned arcs against the merged allowed_
  // matrix.  The election is deterministic per token, so the merge is
  // exact.
  void begin_coordination(const CoordinationSetup& setup) override;
  [[nodiscard]] std::int64_t coord_prescore(const sim::StepView& view,
                                            std::string& frame) override;
  void coord_absorb(const sim::StepView& view,
                    std::span<const std::string> frames) override;
  void coord_emit(const sim::StepView& view, sim::StepPlan& plan) override;

 private:
  /// The per-token election: fills allowed_ rows for token `t`.  When
  /// `receivers` is non-null the vertices whose allowed_ bit was set
  /// are also appended there (unsorted, may repeat).
  void score_token(TokenId t, const sim::StepView& view,
                   std::vector<VertexId>* receivers);
  /// The per-arc capacity fill over the finished allowed_ matrix.
  void fill_arc(ArcId a, const sim::StepView& view, sim::StepPlan& plan);

  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix allowed_;  ///< per-vertex receivable tokens
  std::vector<std::int32_t> frontier_dist_;
  std::vector<VertexId> witness_;
  std::vector<VertexId> needy_;
  std::vector<VertexId> bfs_;  ///< BFS worklist (vector + head cursor)
  TokenSet candidates_;
  TokenSet ranked_cand_;
  TokenSet ranked_want_;
  TokenSet ranked_needs_;
  TokenSet ranked_flood_;
  TokenSet batch_;

  // ---- sharded coordination state (idle in single-process runs) ----
  CoordinationSetup coord_{};
  std::vector<ArcId> owned_arcs_;      ///< arcs with an owned tail
  std::vector<VertexId> receivers_;    ///< per-token election scratch
};

}  // namespace ocd::heuristics
