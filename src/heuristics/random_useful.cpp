#include "ocd/heuristics/random_useful.hpp"

namespace ocd::heuristics {

void RandomPolicy::reset(const core::Instance& instance, std::uint64_t seed) {
  seed_ = seed;
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  useful_ = TokenSet(universe);
  batch_ = TokenSet(universe);
  pool_.clear();
  pool_.reserve(universe);
  chosen_.clear();
  chosen_.reserve(universe);
}

void RandomPolicy::plan_vertex(VertexId self, const sim::StepView& view,
                               sim::StepPlan& plan) {
  // An all-idle step is legitimate under stale peer knowledge (waiting
  // for fresher snapshots), so every vertex marks idle and the marks
  // are overridden by any actual send.
  plan.mark_idle();
  const TokenSetView mine = view.own_possession(self);
  if (mine.empty()) return;

  // One derived stream per (step, vertex): this vertex's random
  // subsets are a pure function of (seed, step, self), independent of
  // how many other vertices planned before it — the property the
  // sharded runtime relies on for bit-identical schedules.
  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(view.step()),
                      static_cast<std::uint64_t>(self)));
  for (ArcId arc_id : view.graph().out_arcs(self)) {
    const Arc& arc = view.graph().arc(arc_id);
    useful_.assign(mine);
    useful_ -= view.peer_possession(self, arc.to);
    const auto available = useful_.count();
    if (available == 0) continue;
    const auto capacity = static_cast<std::size_t>(view.capacity(arc_id));
    if (capacity == 0) continue;
    if (available <= capacity) {
      plan.send(arc_id, useful_);
      continue;
    }
    // Random subset of `capacity` tokens from the useful set.
    useful_.to_vector_into(pool_);
    batch_.clear();
    rng.sample_indices_into(pool_.size(), capacity, chosen_);
    for (std::size_t index : chosen_)
      batch_.set(pool_[index]);
    plan.send(arc_id, batch_);
  }
}

}  // namespace ocd::heuristics
