#include "ocd/heuristics/round_robin.hpp"

namespace ocd::heuristics {

void RoundRobinPolicy::reset(const core::Instance& inst, std::uint64_t) {
  cursor_.assign(static_cast<std::size_t>(inst.graph().num_arcs()), -1);
  batch_ = TokenSet(static_cast<std::size_t>(inst.num_tokens()));
}

void RoundRobinPolicy::plan_vertex(VertexId self, const sim::StepView& view,
                                   sim::StepPlan& plan) {
  const TokenSetView mine = view.own_possession(self);
  if (mine.empty()) return;
  const auto held = static_cast<std::int64_t>(mine.count());

  for (ArcId arc_id : view.graph().out_arcs(self)) {
    const std::int64_t to_send =
        std::min<std::int64_t>(view.capacity(arc_id), held);
    if (to_send == 0) continue;
    batch_.clear();
    TokenId position = cursor_[static_cast<std::size_t>(arc_id)];
    for (std::int64_t k = 0; k < to_send; ++k) {
      position = mine.next_circular(position + 1);
      OCD_ASSERT(position >= 0);
      batch_.set(position);
    }
    cursor_[static_cast<std::size_t>(arc_id)] = position;
    plan.send(arc_id, batch_);
  }
}

}  // namespace ocd::heuristics
