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
// BFS can add a bit only for tokens in R ∩ F; only those run it.
//
// The witness rule: the BFS pushes its sources in ascending vertex id
// and a vertex takes the witness of the in-neighbour that discovers it
// first, so the queue stays sorted by witness id at every level and a
// needy vertex elects the lowest-id frontier vertex at minimum
// distance.  That depends on the frontier set alone, so tokens with
// equal frontiers share one BFS: for each word with R ∩ F tokens, the
// word's frontier and need bits are transposed into vertex columns
// (RarityRanker::word_columns), the R ∩ F tokens are grouped by equal
// frontier column, and one BFS per group sets, for every needy vertex
// it discovers off the frontier, the bits of the group tokens that
// vertex needs on its witness's row.  A group's BFS stops as soon as
// it has discovered every such vertex of every member.
//
// Cost: O((n + m) · W) word operations for the pass over W words per
// row, plus, per word with R ∩ F tokens, O(n) for the two transposes
// and one O(n + m) BFS per distinct frontier column among them.  A
// file's tokens mostly sit at the same holders, so on perfbench's
// lossy-swarm that is about a quarter of the R ∩ F tokens.  On a
// broadcast, where every vertex wants every token, R is empty and no
// word is transposed or searched.
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
  // A word's election reads only step-start state and writes only
  // that word's bits, so the merge is exact.
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
  /// The relay BFS for the R ∩ F tokens `members` of row word wi,
  /// which share the vertex column `frontier` and whose need bits
  /// `into` already holds (need_columns_ has their columns): sets the
  /// elected relays' bits.
  void elect_relays(std::size_t wi, std::span<const std::uint64_t> frontier,
                    std::uint64_t members, const Digraph& graph,
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
  // One row word's vertex columns (RarityRanker::word_columns), and the
  // relay BFS's vertex bitsets, one bit per vertex.
  std::vector<std::uint64_t> front_columns_;
  std::vector<std::uint64_t> need_columns_;
  std::vector<std::uint64_t> far_column_;  ///< needy off the frontier
  std::vector<std::uint64_t> seen_;        ///< discovered by the BFS
  std::vector<VertexId> witness_;  ///< nearest frontier vertex once seen
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
