// Bandwidth (§5.1): an online heuristic with global knowledge that
// "more cautiously adds tokens to a move ... each vertex shall obtain
// from its peers in its next turn only tokens that it will eventually
// use": tokens it needs, or tokens for which it is the closest
// one-hop-knowledge vertex to a node that needs them (a one-hop-
// knowledge vertex could obtain the token in a single turn).
//
// Knowledge class kGlobal.  Each step elects, per token, the needy set
// and the one-hop frontier (vertices lacking the token with an
// in-neighbor holding it); a multi-source BFS from the frontier, in
// ascending vertex id, elects for each needy node its nearest frontier
// vertex.  Only needy nodes and elected relays may receive the token.
// Senders then fill arc capacity with allowed tokens, needs before
// relays, rarest first.
//
// The election runs 64 tokens per word.  One pass over the possession
// rows writes need(v) = want(v) & ~p(v) and front(v) = (OR of p(u) over
// v's in-arcs) & ~p(v) for every vertex, and ORs up two filters:
// R (some frontier vertex does not need the token) and F (some needy
// vertex lies outside the frontier).  An elected relay is always a
// frontier vertex, and a needy frontier vertex elects itself, so the
// BFS can add a bit only for tokens in R ∩ F; only those run it.  The
// pass costs O((n + m) · W) word operations for W words per row, plus
// one O(n + m) BFS per R ∩ F token, which stops as soon as it has
// discovered every needy vertex outside the frontier.  On a broadcast,
// where every vertex wants every token, R is empty and no BFS runs.
#pragma once

#include <cstdint>
#include <span>
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
  // election is sliced by 64-token word (word w belongs to shard
  // w % num_shards; a shard with no word elects nothing); each shard
  // elects its slice into elected_, absorbs every shard's slice into
  // allowed_, and then fills its owned arcs against the merged matrix.
  // A token's election reads only step-start state and writes only
  // that token's bits, so the merge is exact.
  void begin_coordination(const CoordinationSetup& setup) override;
  [[nodiscard]] const util::TokenMatrix& elected() const override {
    return elected_;
  }
  void coord_prescore(const sim::StepView& view) override;
  void coord_absorb(
      std::span<const util::TokenMatrix* const> slices) override;
  void coord_emit(const sim::StepView& view, sim::StepPlan& plan) override;

 private:
  /// The election over the row words first_word, first_word +
  /// word_stride, ...: overwrites those words of `into` with each
  /// vertex's needs and elected relay tokens and leaves the others.
  void elect(const sim::StepView& view, util::TokenMatrix& into,
             std::size_t first_word, std::size_t word_stride);
  /// The relay BFS for one token of R ∩ F, whose need bits `into`
  /// already holds: sets the elected relays' bits.
  void elect_relays(TokenId t, const Digraph& graph,
                    util::TokenMatrix& into);
  /// The per-arc capacity fill over the finished allowed_ matrix.
  void fill_arc(ArcId a, const sim::StepView& view, sim::StepPlan& plan);

  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  RarityRanker ranker_;
  util::TokenMatrix allowed_;  ///< per-vertex receivable tokens
  util::TokenMatrix front_;    ///< per-vertex one-hop frontier tokens
  std::vector<std::uint64_t> spare_front_;  ///< R, one bit per token
  std::vector<std::uint64_t> far_need_;     ///< F, one bit per token
  std::vector<VertexId> witness_;  ///< nearest frontier vertex, or -1
  std::vector<VertexId> bfs_;  ///< BFS worklist (vector + head cursor)
  TokenSet candidates_;
  TokenSet needs_;
  TokenSet ranked_;
  TokenSet batch_;

  // ---- sharded coordination state (idle in single-process runs) ----
  CoordinationSetup coord_{};
  util::TokenMatrix elected_;      ///< this shard's word slice
  std::vector<ArcId> owned_arcs_;  ///< arcs with an owned tail
};

}  // namespace ocd::heuristics
