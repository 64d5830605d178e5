// Enforces shared-physical-link capacity groups (§6 realistic
// topologies) on top of any policy: the inner policy plans against the
// overlay as usual; the adapter then trims each send so that every
// CapacityGroup's per-step total fits.  The excess is dropped uniformly
// at random (congestion loss of the shared physical link) — random
// rather than deterministic so that stateful senders like round-robin
// cannot fall into periodic livelock with the drop pattern.
#pragma once

#include <vector>

#include "ocd/sim/policy.hpp"
#include "ocd/util/rng.hpp"
#include "ocd/topology/physical.hpp"

namespace ocd::sim {

class GroupConstrainedPolicy final : public Policy {
 public:
  GroupConstrainedPolicy(PolicyPtr inner,
                         std::vector<topology::CapacityGroup> groups);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] KnowledgeClass knowledge_class() const override {
    return inner_->knowledge_class();
  }

  void reset(const core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const StepView& view, StepPlan& plan) override;
  /// Folds the congestion drops into RunStats::adapter_dropped_moves so
  /// they land on the same wasted-bandwidth axis as fault losses.
  void finish_run(RunStats& stats) override;

  /// Tokens dropped so far because a shared physical link was full.
  [[nodiscard]] std::int64_t dropped_moves() const noexcept {
    return dropped_moves_;
  }

 private:
  PolicyPtr inner_;
  std::string name_;
  std::vector<topology::CapacityGroup> groups_;
  /// Group indices per overlay arc (built at reset).
  std::vector<std::vector<std::int32_t>> arc_groups_;
  std::int64_t dropped_moves_ = 0;
  Rng rng_{1};
  // Per-step scratch, reused across steps (sized at reset).
  StepPlan scratch_;
  std::vector<std::int32_t> remaining_;
  std::vector<TokenId> pool_;
  std::vector<std::size_t> chosen_;
};

}  // namespace ocd::sim
