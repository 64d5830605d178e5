#include "ocd/sim/group_adapter.hpp"

#include <algorithm>

#include "ocd/sim/stats.hpp"

namespace ocd::sim {

GroupConstrainedPolicy::GroupConstrainedPolicy(
    PolicyPtr inner, std::vector<topology::CapacityGroup> groups)
    : inner_(std::move(inner)), groups_(std::move(groups)) {
  OCD_EXPECTS(inner_ != nullptr);
  name_ = std::string(inner_->name()) + "+groups";
}

void GroupConstrainedPolicy::reset(const core::Instance& inst,
                                   std::uint64_t seed) {
  inner_->reset(inst, seed);
  dropped_moves_ = 0;
  rng_ = Rng(seed ^ 0x6701a9a9ULL);
  arc_groups_.assign(static_cast<std::size_t>(inst.graph().num_arcs()), {});
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (ArcId member : groups_[g].members) {
      OCD_EXPECTS(member >= 0 && member < inst.graph().num_arcs());
      arc_groups_[static_cast<std::size_t>(member)].push_back(
          static_cast<std::int32_t>(g));
    }
  }
  remaining_.assign(groups_.size(), 0);
  pool_.clear();
  pool_.reserve(static_cast<std::size_t>(inst.num_tokens()));
  chosen_.clear();
  chosen_.reserve(static_cast<std::size_t>(inst.num_tokens()));
}

void GroupConstrainedPolicy::plan_step(const StepView& view, StepPlan& plan) {
  scratch_.rebind(view.graph(), {});
  inner_->plan_step(view, scratch_);
  if (scratch_.idle_marked()) plan.mark_idle();

  for (std::size_t g = 0; g < groups_.size(); ++g)
    remaining_[g] = groups_[g].capacity;

  // Each send is trimmed in place in the scratch plan, then forwarded.
  for (const core::MutableArcSend send : scratch_.sends()) {
    const auto planned = static_cast<std::int64_t>(send.tokens.count());
    if (planned == 0) continue;
    // Allowance across every group this arc belongs to.
    std::int64_t allowed = planned;
    for (std::int32_t g : arc_groups_[static_cast<std::size_t>(send.arc)])
      allowed = std::min<std::int64_t>(
          allowed, remaining_[static_cast<std::size_t>(g)]);
    if (allowed <= 0) {
      dropped_moves_ += planned;
      continue;
    }
    if (allowed < planned) {
      // Random survivors: a congested link drops arbitrary packets.
      send.tokens.to_vector_into(pool_);
      send.tokens.clear();
      rng_.sample_indices_into(pool_.size(), static_cast<std::size_t>(allowed),
                               chosen_);
      for (std::size_t index : chosen_) send.tokens.set(pool_[index]);
    }
    dropped_moves_ += planned - allowed;
    for (std::int32_t g : arc_groups_[static_cast<std::size_t>(send.arc)])
      remaining_[static_cast<std::size_t>(g)] -=
          static_cast<std::int32_t>(allowed);
    plan.send(send.arc, send.tokens);
  }
}

void GroupConstrainedPolicy::finish_run(RunStats& stats) {
  stats.adapter_dropped_moves += dropped_moves_;
  inner_->finish_run(stats);
}

}  // namespace ocd::sim
