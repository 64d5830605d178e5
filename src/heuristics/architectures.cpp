#include "ocd/heuristics/architectures.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace ocd::heuristics {

namespace {

/// Root selection: the vertex holding the most tokens (the "source").
VertexId richest_vertex(const core::Instance& inst) {
  VertexId best = 0;
  std::size_t best_count = inst.have(0).count();
  for (VertexId v = 1; v < inst.num_vertices(); ++v) {
    if (inst.have(v).count() > best_count) {
      best_count = inst.have(v).count();
      best = v;
    }
  }
  return best;
}

/// Widest-path (maximum bottleneck) spanning tree rooted at `root`,
/// Prim-style.  Returns each vertex's parent arc (-1 for root /
/// unreachable).
std::vector<ArcId> widest_spanning_tree(const Digraph& graph, VertexId root) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<std::int32_t> best_width(n, -1);
  std::vector<ArcId> parent_arc(n, -1);
  std::vector<bool> in_tree(n, false);
  using Item = std::pair<std::int32_t, VertexId>;  // (width, vertex)
  std::priority_queue<Item> frontier;
  best_width[static_cast<std::size_t>(root)] =
      std::numeric_limits<std::int32_t>::max();
  frontier.push({best_width[static_cast<std::size_t>(root)], root});
  while (!frontier.empty()) {
    const auto [width, v] = frontier.top();
    frontier.pop();
    if (in_tree[static_cast<std::size_t>(v)]) continue;
    in_tree[static_cast<std::size_t>(v)] = true;
    for (ArcId a : graph.out_arcs(v)) {
      const Arc& arc = graph.arc(a);
      const std::int32_t bottleneck = std::min(width, arc.capacity);
      auto& best = best_width[static_cast<std::size_t>(arc.to)];
      if (!in_tree[static_cast<std::size_t>(arc.to)] && bottleneck > best) {
        best = bottleneck;
        parent_arc[static_cast<std::size_t>(arc.to)] = a;
        frontier.push({bottleneck, arc.to});
      }
    }
  }
  return parent_arc;
}

/// Randomized BFS tree rooted at `root` (neighbor order shuffled per
/// tree) — the stripe-diversification device.
std::vector<ArcId> randomized_bfs_tree(const Digraph& graph, VertexId root,
                                       Rng& rng) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<ArcId> parent_arc(n, -1);
  std::vector<bool> seen(n, false);
  seen[static_cast<std::size_t>(root)] = true;
  std::vector<VertexId> frontier{root};
  while (!frontier.empty()) {
    std::vector<VertexId> next;
    rng.shuffle(frontier);
    for (VertexId v : frontier) {
      std::vector<ArcId> out(graph.out_arcs(v).begin(),
                             graph.out_arcs(v).end());
      rng.shuffle(out);
      for (ArcId a : out) {
        const VertexId w = graph.arc(a).to;
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          parent_arc[static_cast<std::size_t>(w)] = a;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  return parent_arc;
}

/// Marks both directions of each parent arc in `allowed`.
template <typename MarkFn>
void mark_tree_arcs(const Digraph& graph, const std::vector<ArcId>& parents,
                    MarkFn&& mark) {
  for (ArcId a : parents) {
    if (a < 0) continue;
    mark(a);
    const Arc& arc = graph.arc(a);
    const ArcId reverse = graph.find_arc(arc.to, arc.from);
    if (reverse >= 0) mark(reverse);
  }
}

/// Flood useful tokens along permitted arcs (shared by both policies).
/// `allowed_tokens(a)` filters what an arc may carry.
template <typename AllowedFn>
bool flood_along(const sim::StepView& view, sim::StepPlan& plan,
                 AllowedFn&& allowed_tokens) {
  const Digraph& graph = view.graph();
  bool sent = false;
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const auto capacity = static_cast<std::size_t>(view.capacity(a));
    if (capacity == 0) continue;
    const Arc& arc = graph.arc(a);
    TokenSet useful = allowed_tokens(a);
    if (useful.empty()) continue;
    useful &= view.own_possession(arc.from);
    useful -= view.peer_across(arc.from, a);
    if (useful.empty()) continue;
    if (useful.count() > capacity) useful.truncate(capacity);
    plan.send(a, useful);
    sent = true;
  }
  return sent;
}

}  // namespace

// ---------------------------------------------------------------------
// TreePolicy
// ---------------------------------------------------------------------
void TreePolicy::reset(const core::Instance& inst, std::uint64_t) {
  arc_in_tree_.assign(static_cast<std::size_t>(inst.graph().num_arcs()),
                      false);
  tree_arcs_.clear();
  const auto parents =
      widest_spanning_tree(inst.graph(), richest_vertex(inst));
  mark_tree_arcs(inst.graph(), parents, [&](ArcId a) {
    if (!arc_in_tree_[static_cast<std::size_t>(a)]) {
      arc_in_tree_[static_cast<std::size_t>(a)] = true;
      tree_arcs_.push_back(a);
    }
  });
}

void TreePolicy::plan_step(const sim::StepView& view, sim::StepPlan& plan) {
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  const bool sent = flood_along(view, plan, [&](ArcId a) {
    return arc_in_tree_[static_cast<std::size_t>(a)]
               ? TokenSet::full(universe)
               : TokenSet(universe);
  });
  if (!sent) plan.mark_idle();
}

// ---------------------------------------------------------------------
// StripedForestPolicy
// ---------------------------------------------------------------------
StripedForestPolicy::StripedForestPolicy(std::int32_t stripes)
    : stripes_(stripes) {
  OCD_EXPECTS(stripes >= 1 && stripes <= 32);
}

void StripedForestPolicy::reset(const core::Instance& inst,
                                std::uint64_t seed) {
  Rng rng(seed ^ 0x57717e5ULL);
  arc_stripes_.assign(static_cast<std::size_t>(inst.graph().num_arcs()), 0);
  const VertexId root = richest_vertex(inst);
  for (std::int32_t s = 0; s < stripes_; ++s) {
    const auto parents = randomized_bfs_tree(inst.graph(), root, rng);
    mark_tree_arcs(inst.graph(), parents, [&](ArcId a) {
      arc_stripes_[static_cast<std::size_t>(a)] |= 1u << s;
    });
  }
  // Stripe membership of each token: token t belongs to stripe t mod k.
  stripe_tokens_.assign(static_cast<std::size_t>(stripes_),
                        TokenSet(static_cast<std::size_t>(inst.num_tokens())));
  for (TokenId t = 0; t < inst.num_tokens(); ++t)
    stripe_tokens_[static_cast<std::size_t>(t % stripes_)].set(t);
}

void StripedForestPolicy::plan_step(const sim::StepView& view,
                                    sim::StepPlan& plan) {
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  const bool sent = flood_along(view, plan, [&](ArcId a) {
    TokenSet allowed(universe);
    const std::uint32_t mask = arc_stripes_[static_cast<std::size_t>(a)];
    for (std::int32_t s = 0; s < stripes_; ++s) {
      if ((mask >> s) & 1u) allowed |= stripe_tokens_[static_cast<std::size_t>(s)];
    }
    return allowed;
  });
  if (!sent) plan.mark_idle();
}

// ---------------------------------------------------------------------
// FastReplicaPolicy
// ---------------------------------------------------------------------
void FastReplicaPolicy::reset(const core::Instance& inst, std::uint64_t) {
  source_ = richest_vertex(inst);
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  const auto out = inst.graph().out_arcs(source_);
  block_of_arc_.assign(static_cast<std::size_t>(inst.graph().num_arcs()),
                       TokenSet(universe));
  if (out.empty()) return;
  // Partition the source's tokens into |out| nearly equal blocks, one
  // per out-arc (the FastReplica scatter plan).
  const auto tokens = inst.have(source_).to_vector();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const ArcId arc = out[i % out.size()];
    block_of_arc_[static_cast<std::size_t>(arc)].set(tokens[i]);
  }
}

void FastReplicaPolicy::plan_step(const sim::StepView& view,
                                  sim::StepPlan& plan) {
  const auto universe = static_cast<std::size_t>(view.num_tokens());
  const bool sent = flood_along(view, plan, [&](ArcId a) {
    // Scatter discipline: while an arc's own block is still undelivered
    // the source pushes only that block; afterwards the source joins
    // the collect phase as an ordinary exchanger (necessary when its
    // neighbors interconnect only through it).  Every other vertex
    // exchanges everything it has.
    const Arc& arc = view.graph().arc(a);
    if (arc.from == source_) {
      TokenSet outstanding = block_of_arc_[static_cast<std::size_t>(a)];
      outstanding -= view.peer_across(source_, a);
      if (!outstanding.empty())
        return block_of_arc_[static_cast<std::size_t>(a)];
    }
    return TokenSet::full(universe);
  });
  if (!sent) plan.mark_idle();
}

const std::vector<std::string>& extended_policy_names() {
  static const std::vector<std::string> names = {
      "round-robin", "random",        "local",
      "bandwidth",   "global",        "overcast-tree",
      "splitstream-forest", "fast-replica"};
  return names;
}

}  // namespace ocd::heuristics
