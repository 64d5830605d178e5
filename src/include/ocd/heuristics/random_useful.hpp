// Random (§5.1): "peers have current knowledge about the tokens known by
// each of their peers at the beginning of the turn.  Each vertex then
// independently chooses at random which tokens to send over the edge."
//
// Knowledge class kLocalPeers.  The peer snapshot honours the
// simulator's staleness option (the paper's "state 'k' turns ago"
// relaxation).  A flooding heuristic: it sends any token the peer lacks,
// wanted or not.
#pragma once

#include <vector>

#include "ocd/sim/policy.hpp"

namespace ocd::heuristics {

class RandomPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "random"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kLocalPeers;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_vertex(VertexId self, const sim::StepView& view,
                   sim::StepPlan& plan) override;

 private:
  // Sampling draws from an Rng derived per (seed, step, vertex) rather
  // than one sequential stream, so a vertex's choices depend only on
  // its own coordinates — any shard (or thread) planning it computes
  // the same sends, in any order.
  std::uint64_t seed_ = 1;
  // Planner scratch, sized once in reset() and rewritten in place each
  // step so steady-state planning does not allocate.
  TokenSet useful_;
  TokenSet batch_;
  std::vector<TokenId> pool_;
  std::vector<std::size_t> chosen_;
};

}  // namespace ocd::heuristics
