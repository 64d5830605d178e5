// Round Robin (§5.1): "simply sends the circular queue of tokens over
// each link (skipping tokens it does not have)".
//
// Knowledge class kLocalOnly: the only state is the set of tokens held
// locally and the last token sent to each peer, so the heuristic happily
// re-sends tokens the receiver already has and duplicates other peers'
// sends — exactly the waste the paper attributes to it.
#pragma once

#include <vector>

#include "ocd/sim/policy.hpp"

namespace ocd::heuristics {

class RoundRobinPolicy final : public sim::Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }
  [[nodiscard]] sim::KnowledgeClass knowledge_class() const override {
    return sim::KnowledgeClass::kLocalOnly;
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_vertex(VertexId self, const sim::StepView& view,
                   sim::StepPlan& plan) override;

 private:
  /// Per-arc circular cursor: the token id after which the next scan
  /// starts.
  std::vector<TokenId> cursor_;
  /// Per-arc batch scratch, reused across steps (no per-step allocation).
  TokenSet batch_;
};

}  // namespace ocd::heuristics
