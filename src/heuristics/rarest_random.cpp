#include "ocd/heuristics/rarest_random.hpp"

#include <algorithm>

namespace ocd::heuristics {

void RarestRandomPolicy::reset(const core::Instance& instance,
                               std::uint64_t seed) {
  rng_ = Rng(seed);
  const Digraph& graph = instance.graph();
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  const auto num_arcs = static_cast<std::size_t>(graph.num_arcs());
  std::size_t max_in_degree = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v)
    max_in_degree = std::max(max_in_degree, graph.in_arcs(v).size());
  requests_.reset(num_arcs, universe);
  offered_.reset(max_in_degree, universe);
  budget_.assign(num_arcs, 0);
  offered_any_ = TokenSet(universe);
  wanted_ = TokenSet(universe);
  ranked_offered_ = TokenSet(universe);
  ranked_wanted_ = TokenSet(universe);
  wanted_pool_ = TokenSet(universe);
  flood_pool_ = TokenSet(universe);
}

void RarestRandomPolicy::begin_plan(const sim::StepView& view) {
  const Digraph& graph = view.graph();

  // Global priority order shared by all vertices this step (both
  // aggregates are distributed to everyone, §5.1): tokens somebody still
  // needs come first, rarest first within each class, random tie-break.
  // Requests then walk rank-space sets (ocd/util/rarity.hpp) so each
  // vertex only visits the tokens its peers actually offer, instead of
  // rescanning the whole priority order.
  //
  // Exactly one rng_ draw sequence per step, independent of how many
  // receivers this planner covers — every shard's stream stays in
  // lockstep with the single-process run.
  ranker_.assign_by_need_then_rarity(view.aggregate_holders(),
                                     view.aggregate_need(), &rng_);

  requests_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a)
    budget_[static_cast<std::size_t>(a)] = view.capacity(a);
}

// Pass 1 for one receiver: subdivide its lacking tokens into per-arc
// requests.  Touches only v's in-arc budgets and request rows, so
// receivers can be planned in any grouping without changing the result.
void RarestRandomPolicy::plan_receiver(VertexId v, const sim::StepView& view) {
  const Digraph& graph = view.graph();
  const TokenSetView mine = view.own_possession(v);
  const auto in_arcs = graph.in_arcs(v);
  if (in_arcs.empty()) return;

  // Tokens available from each in-neighbor (per the stale peer view).
  offered_any_.clear();
  for (std::size_t k = 0; k < in_arcs.size(); ++k) {
    MutableTokenSetView tokens = offered_.row(k);
    tokens.assign(view.peer_possession(v, graph.arc(in_arcs[k]).from));
    tokens -= mine;
    offered_any_ |= tokens;
  }
  if (offered_any_.empty()) return;

  std::int64_t total_budget = 0;
  for (ArcId a : in_arcs)
    total_budget += budget_[static_cast<std::size_t>(a)];

  wanted_.assign(view.own_want(v));
  wanted_ -= mine;
  ranker_.to_ranks_into(offered_any_, ranked_offered_);
  ranker_.to_ranks_into(wanted_, ranked_wanted_);
  // Two priority passes: wanted tokens first, then pure flood tokens.
  // Only offered tokens can turn into requests, so the scan is over
  // the (ranked) offered set split by wantedness.
  wanted_pool_.assign(ranked_offered_);
  wanted_pool_ &= ranked_wanted_;
  flood_pool_.assign(ranked_offered_);
  flood_pool_ -= ranked_wanted_;
  for (const TokenSet* pool : {&wanted_pool_, &flood_pool_}) {
    if (total_budget <= 0) break;
    for (TokenId r = pool->first(); r >= 0; r = pool->next(r + 1)) {
      if (total_budget <= 0) break;
      const TokenId t = ranker_.token_at(r);
      // Choose the offering arc with the largest remaining budget
      // (balances load across peers); random tie-break via scan order.
      std::int32_t best = -1;
      std::int32_t best_budget = 0;
      for (std::size_t k = 0; k < in_arcs.size(); ++k) {
        const ArcId a = in_arcs[k];
        if (!offered_.row(k).test(t)) continue;
        const std::int32_t b = budget_[static_cast<std::size_t>(a)];
        if (b > best_budget) {
          best_budget = b;
          best = a;
        }
      }
      if (best >= 0) {
        requests_.row(static_cast<std::size_t>(best)).set(t);
        --budget_[static_cast<std::size_t>(best)];
        --total_budget;
      }
    }
  }
}

// Pass 2 — senders fulfil requests (token presence is guaranteed:
// the stale view is a subset of current possession).  Arc-ascending,
// so disjoint per-shard plans merge back into the plan_step order.
void RarestRandomPolicy::emit_requests(const sim::StepView& view,
                                       sim::StepPlan& plan) {
  const Digraph& graph = view.graph();
  bool sent = false;
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const TokenSetView request = requests_.row(static_cast<std::size_t>(a));
    if (!request.empty()) {
      plan.send(a, request);
      sent = true;
    }
  }
  // No requests can be a legitimate wait: with stale peer knowledge the
  // offers lag behind reality, and progress resumes once the aggregate
  // snapshots age forward.
  if (!sent) plan.mark_idle();
}

// All per-step working sets live in the policy's scratch members (sized
// in reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void RarestRandomPolicy::plan_step(const sim::StepView& view,
                                   sim::StepPlan& plan) {
  begin_plan(view);
  for (VertexId v = 0; v < view.graph().num_vertices(); ++v)
    plan_receiver(v, view);
  emit_requests(view, plan);
}

void RarestRandomPolicy::plan_shard(const sim::StepView& view,
                                    sim::StepPlan& plan,
                                    std::span<const VertexId> owned) {
  begin_plan(view);
  for (VertexId v : owned) plan_receiver(v, view);
  emit_requests(view, plan);
}

}  // namespace ocd::heuristics
