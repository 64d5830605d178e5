#include "ocd/sim/policy.hpp"

namespace ocd::sim {

StepPlan::StepPlan(const Digraph& graph) { rebind(graph, {}); }

StepPlan::StepPlan(const Digraph& graph,
                   std::span<const std::int32_t> effective_capacity) {
  OCD_EXPECTS(effective_capacity.size() ==
              static_cast<std::size_t>(graph.num_arcs()));
  rebind(graph, effective_capacity);
}

void StepPlan::rebind(const Digraph& graph,
                      std::span<const std::int32_t> effective_capacity) {
  OCD_EXPECTS(effective_capacity.empty() ||
              effective_capacity.size() ==
                  static_cast<std::size_t>(graph.num_arcs()));
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  if (graph_ != &graph || arc_slot_.size() != num_arcs) {
    graph_ = &graph;
    arc_slot_.assign(num_arcs, -1);
  } else {
    // Same graph: undo only the slots the previous step touched.
    for (const core::ArcSend send : pool_.sends())
      arc_slot_[static_cast<std::size_t>(send.arc)] = -1;
  }
  pool_.clear();
  effective_capacity_ = effective_capacity;
  idle_ = false;
}

void StepPlan::send(ArcId arc, TokenSetView tokens) {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  if (tokens.empty()) return;
  std::int32_t& slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot >= 0) {
    pool_.sends()[static_cast<std::size_t>(slot)].tokens |= tokens;
    return;
  }
  slot = static_cast<std::int32_t>(pool_.sends().size());
  pool_.append(arc, tokens);
}

void StepPlan::send(ArcId arc, TokenId token, std::size_t universe) {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  std::int32_t& slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot >= 0) {
    pool_.sends()[static_cast<std::size_t>(slot)].tokens.set(token);
    return;
  }
  slot = static_cast<std::int32_t>(pool_.sends().size());
  pool_.append(arc, universe).tokens.set(token);
}

std::int32_t StepPlan::remaining_capacity(ArcId arc) const {
  OCD_EXPECTS(graph_ != nullptr);
  OCD_EXPECTS(arc >= 0 && arc < graph_->num_arcs());
  const std::int32_t capacity =
      effective_capacity_.empty()
          ? graph_->arc(arc).capacity
          : effective_capacity_[static_cast<std::size_t>(arc)];
  const std::int32_t slot = arc_slot_[static_cast<std::size_t>(arc)];
  if (slot < 0) return capacity;
  return capacity -
         static_cast<std::int32_t>(
             pool_.sends()[static_cast<std::size_t>(slot)].tokens.count());
}

void Policy::reset(const core::Instance&, std::uint64_t) {}

void Policy::plan_step(const StepView& view, StepPlan& plan) {
  for (VertexId v = 0; v < view.graph().num_vertices(); ++v)
    plan_vertex(v, view, plan);
}

void Policy::plan_vertex(VertexId, const StepView&, StepPlan&) {}

void Policy::plan_shard(const StepView& view, StepPlan& plan,
                        std::span<const VertexId> owned) {
  for (VertexId v : owned) plan_vertex(v, view, plan);
}

void Policy::finish_run(RunStats&) {}

void Policy::save_state(util::BinStream&) const {}

void Policy::load_state(util::BinStream&) {}

}  // namespace ocd::sim
