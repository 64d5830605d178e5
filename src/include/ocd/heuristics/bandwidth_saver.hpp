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
//
// Sharded coordination (shard::run_sharded).  The election reads
// possession and demand at vertices other shards own, so it cannot be
// unioned from per-shard decisions the way the local planners' plans
// are.  Every shard reads the same shared step view instead, and the
// plan phase gains one pool barrier.  The runtime calls, per step:
//   1. coord_prescore — elect the shard's slice of 64-token words
//      (word w belongs to shard w % num_shards; a shard past the last
//      word elects nothing) into elected(), reading only the step-start
//      view: the word pass over those words, and the relay BFS only for
//      their R ∩ F tokens.
//   2. (pool barrier)
//   3. coord_absorb — OR every shard's slice, read in place, into
//      allowed_; every shard ends up with the serial matrix.
//   4. coord_emit — fill the arcs whose tail the shard owns, in arc
//      order, so the runtime's merge by arc id reproduces plan_step's
//      send order.
// A word's election (its BFS groups never span words) writes only that
// word's bits, so the slices are exact and the merge needs no fallback.
// The election draws no randomness, so every shard's policy state stays
// in lockstep with the single-process run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/rarity.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::heuristics {

class BandwidthPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "bandwidth"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kGlobal;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const sim::StepView& view, sim::StepPlan& plan) override;

  // Sharded coordination, the protocol in the header comment.
  /// Called once per run, after reset: this policy is shard `shard` of
  /// `num_shards`, and `shard_of` maps every vertex to its owner.
  void begin_coordination(std::span<const std::int32_t> shard_of,
                          std::int32_t shard, std::int32_t num_shards);
  /// The slice the last coord_prescore elected.  The reference stays
  /// valid for the whole run; peers read it between the barrier and the
  /// next coord_prescore, during which it does not change.
  [[nodiscard]] const util::TokenMatrix& elected() const { return elected_; }
  void coord_prescore(const sim::StepView& view);
  /// `slices` holds every shard's elected(), this one's included, in
  /// shard order.
  void coord_absorb(std::span<const util::TokenMatrix* const> slices);
  void coord_emit(const sim::StepView& view, sim::StepPlan& plan);

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
  const Digraph* graph_ = nullptr;  ///< the graph of the last reset()
  std::int32_t shard_ = 0;
  std::int32_t num_shards_ = 1;
  util::TokenMatrix elected_;      ///< this shard's word slice
  std::vector<ArcId> owned_arcs_;  ///< arcs with an owned tail
};

}  // namespace ocd::heuristics
