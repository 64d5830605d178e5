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
  requested_ = TokenSet(num_arcs);
  offered_.reset(max_in_degree, universe);
  budget_.assign(max_in_degree, 0);
  live_.clear();
  live_.reserve(max_in_degree);
  live_offers_ = TokenSet(universe);
  pass_tokens_ = TokenSet(universe);
  pass_ranks_ = TokenSet(universe);
}

void RarestRandomPolicy::begin_plan(const sim::StepView& view) {
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
}

// Pass 1 for one receiver: subdivide its lacking tokens into per-arc
// requests.  Touches only v's in-arc budgets and request rows, so
// receivers can be planned in any grouping without changing the result.
void RarestRandomPolicy::plan_receiver(VertexId v, const sim::StepView& view) {
  const TokenSetView mine = view.own_possession(v);
  // Every offer is `peer - mine`, so a receiver holding the whole
  // universe has none.  A merely satisfied one still takes floods.
  if (mine.count() == mine.universe_size()) return;
  const auto in_arcs = view.graph().in_arcs(v);

  // The live in-arcs: budget left and something offered (per the stale
  // peer view), by budget descending, then in-arc index ascending.  A
  // token goes to the first live arc that offers it: the largest
  // remaining budget (balances load across peers), ties to the lowest
  // index.  Insertion keeps the order without allocating.  Budgets are
  // indexed by in-arc and seeded here: no other receiver spends them.
  live_.clear();
  live_offers_.clear();
  for (std::size_t k = 0; k < in_arcs.size(); ++k) {
    const std::int32_t budget = budget_[k] = view.capacity(in_arcs[k]);
    if (budget <= 0) continue;
    const MutableTokenSetView tokens = offered_.row(k);
    tokens.assign(view.peer_across(v, in_arcs[k]));
    tokens -= mine;
    if (tokens.empty()) continue;
    live_offers_ |= tokens;
    live_.push_back(k);
    for (std::size_t i = live_.size() - 1;
         i > 0 && budget_[live_[i - 1]] < budget; --i)
      std::swap(live_[i - 1], live_[i]);
  }

  // Two priority passes over the live offers in rank order: wanted
  // tokens first, then pure flood tokens.  The offers exclude `mine`,
  // so the want row needs no trim.  A pass ranks only its own class,
  // and the flood class only while some budget is left.
  const TokenSetView want = view.own_want(v);
  for (const bool wanted_pass : {true, false}) {
    if (live_.empty()) break;
    pass_tokens_.assign(live_offers_);
    if (wanted_pass) {
      pass_tokens_ &= want;
    } else {
      pass_tokens_ -= want;
    }
    ranker_.to_ranks_into(pass_tokens_, pass_ranks_);
    for (TokenId r = pass_ranks_.first(); r >= 0 && !live_.empty();
         r = pass_ranks_.next(r + 1)) {
      const TokenId t = ranker_.token_at(r);
      if (!live_offers_.test(t)) continue;  // only spent arcs offer it
      std::size_t i = 0;
      while (!offered_.row(live_[i]).test(t)) ++i;
      const std::size_t k = live_[i];
      requests_.row(static_cast<std::size_t>(in_arcs[k])).set(t);
      requested_.set(in_arcs[k]);
      const std::int32_t budget = --budget_[k];
      if (budget == 0) {
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        live_offers_.clear();
        for (const std::size_t j : live_) live_offers_ |= offered_.row(j);
        continue;
      }
      // Sink the arc past the arcs that now outrank it.
      for (; i + 1 < live_.size(); ++i) {
        const std::size_t after = live_[i + 1];
        const std::int32_t b = budget_[after];
        if (b < budget || (b == budget && after > k)) break;
        std::swap(live_[i], live_[i + 1]);
      }
    }
  }
}

// Pass 2 — senders fulfil requests (token presence is guaranteed:
// the stale view is a subset of current possession).  Only the marked
// arcs, arc-ascending, so disjoint per-shard plans merge back into the
// plan_step order; each row and mark is zeroed for the next step.
void RarestRandomPolicy::emit_requests(sim::StepPlan& plan) {
  requested_.for_each([&](ArcId a) {
    const MutableTokenSetView request =
        requests_.row(static_cast<std::size_t>(a));
    plan.send(a, request);
    request.clear();
  });
  const bool sent = requested_.any();
  requested_.clear();
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
  emit_requests(plan);
}

void RarestRandomPolicy::plan_shard(const sim::StepView& view,
                                    sim::StepPlan& plan,
                                    std::span<const VertexId> owned) {
  begin_plan(view);
  for (VertexId v : owned) plan_receiver(v, view);
  emit_requests(plan);
}

}  // namespace ocd::heuristics
