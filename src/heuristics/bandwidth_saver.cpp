#include "ocd/heuristics/bandwidth_saver.hpp"

#include <algorithm>

namespace ocd::heuristics {

void BandwidthPolicy::reset(const core::Instance& instance, std::uint64_t) {
  const auto n = static_cast<std::size_t>(instance.graph().num_vertices());
  const auto universe = static_cast<std::size_t>(instance.num_tokens());
  allowed_.reset(n, universe);
  frontier_dist_.assign(n, -1);
  witness_.assign(n, 0);
  needy_.clear();
  needy_.reserve(n);
  bfs_.clear();
  bfs_.reserve(n);
  candidates_ = TokenSet(universe);
  ranked_cand_ = TokenSet(universe);
  ranked_want_ = TokenSet(universe);
  ranked_needs_ = TokenSet(universe);
  ranked_flood_ = TokenSet(universe);
  batch_ = TokenSet(universe);
}

// The per-token election: needy set, one-hop frontier, multi-source
// BFS electing each needy node's nearest frontier vertex; needy nodes
// and elected relays become the token's allowed receivers.  Reads only
// step-start state and writes only `t`'s bits, so slicing the token
// loop across shards reproduces the serial matrix exactly.
void BandwidthPolicy::score_token(TokenId t, const sim::StepView& view,
                                  util::TokenMatrix& into) {
  const Digraph& graph = view.graph();
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();

  // Needy vertices for t.
  needy_.clear();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (inst.want(v).test(t) &&
        !possession.row(static_cast<std::size_t>(v)).test(t))
      needy_.push_back(v);
  }
  if (needy_.empty()) return;
  for (VertexId v : needy_) into.row(static_cast<std::size_t>(v)).set(t);

  // One-hop-knowledge frontier: lacks t, has an in-neighbor holding t.
  std::fill(frontier_dist_.begin(), frontier_dist_.end(), -1);
  bfs_.clear();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (possession.row(static_cast<std::size_t>(v)).test(t)) continue;
    for (ArcId a : graph.in_arcs(v)) {
      if (possession.row(static_cast<std::size_t>(graph.arc(a).from))
              .test(t)) {
        frontier_dist_[static_cast<std::size_t>(v)] = 0;
        witness_[static_cast<std::size_t>(v)] = v;
        bfs_.push_back(v);
        break;
      }
    }
  }
  if (bfs_.empty()) return;  // everyone reachable already holds t

  // Multi-source BFS electing, for every vertex, its nearest frontier
  // vertex (ties broken by BFS order — deterministic).
  for (std::size_t head = 0; head < bfs_.size(); ++head) {
    const VertexId u = bfs_[head];
    for (ArcId a : graph.out_arcs(u)) {
      const VertexId w = graph.arc(a).to;
      if (frontier_dist_[static_cast<std::size_t>(w)] < 0) {
        frontier_dist_[static_cast<std::size_t>(w)] =
            frontier_dist_[static_cast<std::size_t>(u)] + 1;
        witness_[static_cast<std::size_t>(w)] =
            witness_[static_cast<std::size_t>(u)];
        bfs_.push_back(w);
      }
    }
  }
  for (VertexId v : needy_) {
    if (frontier_dist_[static_cast<std::size_t>(v)] >= 0) {
      const VertexId relay = witness_[static_cast<std::size_t>(v)];
      into.row(static_cast<std::size_t>(relay)).set(t);
    }
  }
}

// The per-arc capacity fill over the finished allowed_ matrix: direct
// needs before relay tokens, rarest first inside each class.  The fill
// is a masked-word iteration over rank-space sets (ocd/util/rarity.hpp)
// rather than a scan of the full rarity order per arc.
void BandwidthPolicy::fill_arc(ArcId a, const sim::StepView& view,
                               sim::StepPlan& plan) {
  const core::Instance& inst = view.instance();
  const util::TokenMatrix& possession = view.global_possession();
  const Arc& arc = view.graph().arc(a);
  candidates_.assign(possession.row(static_cast<std::size_t>(arc.from)));
  candidates_ -= possession.row(static_cast<std::size_t>(arc.to));
  candidates_ &= allowed_.row(static_cast<std::size_t>(arc.to));
  if (candidates_.empty()) return;

  const auto capacity = static_cast<std::size_t>(view.capacity(a));
  if (capacity == 0) return;
  if (candidates_.count() <= capacity) {
    plan.send(a, candidates_);
    return;
  }
  ranker_.to_ranks_into(candidates_, ranked_cand_);
  ranker_.to_ranks_into(inst.want(arc.to), ranked_want_);
  ranked_needs_.assign(ranked_cand_);
  ranked_needs_ &= ranked_want_;
  batch_.clear();
  std::size_t filled = 0;
  const auto take = [&](TokenId r) {
    batch_.set(ranker_.token_at(r));
    return ++filled < capacity;
  };
  TokenSet::for_each_in_intersection(ranked_cand_, ranked_needs_, take);
  if (filled < capacity) {
    ranked_flood_.assign(ranked_cand_);
    ranked_flood_ -= ranked_needs_;
    TokenSet::for_each_in_intersection(ranked_cand_, ranked_flood_, take);
  }
  plan.send(a, batch_);
}

// All per-step working sets live in the policy's scratch members (sized
// in reset(), overwritten in place here), so a steady-state step is
// allocation-free.
void BandwidthPolicy::plan_step(const sim::StepView& view,
                                sim::StepPlan& plan) {
  // allowed[v]: tokens v may receive this turn (needs + elected relays).
  allowed_.clear();
  for (TokenId t = 0; t < view.num_tokens(); ++t)
    score_token(t, view, allowed_);

  ranker_.assign_by_rarity(view.aggregate_holders(), nullptr);
  for (ArcId a = 0; a < view.graph().num_arcs(); ++a) fill_arc(a, view, plan);
}

void BandwidthPolicy::begin_coordination(const CoordinationSetup& setup) {
  coord_ = setup;
  const Digraph& graph = setup.instance->graph();
  owned_arcs_.clear();
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    if (setup.shard_of[static_cast<std::size_t>(graph.arc(a).from)] ==
        setup.shard)
      owned_arcs_.push_back(a);
  }
  elected_.reset(allowed_.rows(), allowed_.universe_size());
}

// Elects the shard's token slice (t % num_shards == shard) into
// elected_, which peers read after the barrier.
void BandwidthPolicy::coord_prescore(const sim::StepView& view) {
  elected_.clear();
  for (TokenId t = coord_.shard; t < view.num_tokens();
       t += coord_.num_shards)
    score_token(t, view, elected_);
}

// Each slice holds only its own tokens' bits, so their union is the
// serial allowed_ matrix.
void BandwidthPolicy::coord_absorb(
    std::span<const util::TokenMatrix* const> slices) {
  allowed_.clear();
  for (const util::TokenMatrix* slice : slices)
    for (std::size_t v = 0; v < allowed_.rows(); ++v)
      allowed_.row(v) |= slice->row(v);
}

// The serial arc loop is arc-ascending, so the owned slice emitted
// here merges across shards (by arc id) into exactly the plan_step
// send order.
void BandwidthPolicy::coord_emit(const sim::StepView& view,
                                 sim::StepPlan& plan) {
  ranker_.assign_by_rarity(view.aggregate_holders(), nullptr);
  for (const ArcId a : owned_arcs_) fill_arc(a, view, plan);
}

}  // namespace ocd::heuristics
