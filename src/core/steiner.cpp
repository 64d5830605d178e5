#include "ocd/core/steiner.hpp"

#include <algorithm>
#include <queue>

#include "ocd/graph/algorithms.hpp"

namespace ocd::core {

std::int32_t SteinerTree::height() const {
  std::int32_t h = 0;
  for (std::int32_t d : depth) h = std::max(h, d + 1);
  return h;
}

SteinerTree steiner_tree(const Digraph& graph,
                         const std::vector<VertexId>& roots,
                         const std::vector<VertexId>& terminals) {
  OCD_EXPECTS(!roots.empty());
  const auto n = static_cast<std::size_t>(graph.num_vertices());

  // in_tree[v]: v is reached by the growing arborescence.
  std::vector<bool> in_tree(n, false);
  std::vector<std::int32_t> tree_depth(n, 0);
  for (VertexId r : roots) in_tree[static_cast<std::size_t>(r)] = true;

  std::vector<bool> is_terminal(n, false);
  std::size_t remaining = 0;
  for (VertexId t : terminals) {
    if (!in_tree[static_cast<std::size_t>(t)] &&
        !is_terminal[static_cast<std::size_t>(t)]) {
      is_terminal[static_cast<std::size_t>(t)] = true;
      ++remaining;
    }
  }

  SteinerTree result;
  while (remaining > 0) {
    // Multi-source BFS from the current tree; stop at the first terminal
    // reached, then splice its shortest path into the tree.
    std::vector<ArcId> parent_arc(n, -1);
    std::vector<std::int32_t> dist(n, kUnreachable);
    std::queue<VertexId> frontier;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (in_tree[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = 0;
        frontier.push(v);
      }
    }
    VertexId found = -1;
    while (!frontier.empty() && found < 0) {
      const VertexId u = frontier.front();
      frontier.pop();
      for (ArcId id : graph.out_arcs(u)) {
        const VertexId w = graph.arc(id).to;
        auto& dw = dist[static_cast<std::size_t>(w)];
        if (dw != kUnreachable) continue;
        dw = dist[static_cast<std::size_t>(u)] + 1;
        parent_arc[static_cast<std::size_t>(w)] = id;
        if (is_terminal[static_cast<std::size_t>(w)]) {
          found = w;
          break;
        }
        frontier.push(w);
      }
    }
    if (found < 0) throw Error("steiner_tree: terminal unreachable from roots");

    // Walk the path back to the tree, collecting arcs root-to-terminal.
    std::vector<ArcId> path;
    for (VertexId v = found; !in_tree[static_cast<std::size_t>(v)];) {
      const ArcId id = parent_arc[static_cast<std::size_t>(v)];
      OCD_ASSERT(id >= 0);
      path.push_back(id);
      v = graph.arc(id).from;
    }
    std::reverse(path.begin(), path.end());
    for (ArcId id : path) {
      const Arc& arc = graph.arc(id);
      const auto tail_depth = tree_depth[static_cast<std::size_t>(arc.from)];
      result.arcs.push_back(id);
      result.depth.push_back(tail_depth);
      in_tree[static_cast<std::size_t>(arc.to)] = true;
      tree_depth[static_cast<std::size_t>(arc.to)] = tail_depth + 1;
      if (is_terminal[static_cast<std::size_t>(arc.to)]) {
        is_terminal[static_cast<std::size_t>(arc.to)] = false;
        --remaining;
      }
    }
  }
  return result;
}

Schedule serial_steiner_schedule(const Instance& inst) {
  Schedule schedule;
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  for (TokenId t = 0; t < inst.num_tokens(); ++t) {
    std::vector<VertexId> terminals;
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      if (inst.want(v).test(t) && !inst.have(v).test(t)) terminals.push_back(v);
    }
    if (terminals.empty()) continue;
    const auto roots = inst.sources_of(t);
    if (roots.empty())
      throw Error("serial_steiner_schedule: token has no holder");
    const SteinerTree tree = steiner_tree(inst.graph(), roots, terminals);

    // One timestep per tree level; arcs at equal depth run in parallel
    // (each carries a single token, so unit capacity suffices).
    const std::int32_t height = tree.height();
    std::vector<Timestep> levels(static_cast<std::size_t>(height));
    for (std::size_t k = 0; k < tree.arcs.size(); ++k) {
      levels[static_cast<std::size_t>(tree.depth[k])].add(tree.arcs[k], t,
                                                          universe);
    }
    for (const Timestep& level : levels) schedule.append(level);
  }
  return schedule;
}

Schedule steiner_packing_schedule(const Instance& inst) {
  const auto universe = static_cast<std::size_t>(inst.num_tokens());
  const auto n = static_cast<std::size_t>(inst.num_vertices());

  // Pending tree arcs per token.
  struct PendingArc {
    TokenId token;
    ArcId arc;
    bool done = false;
  };
  std::vector<PendingArc> pending;
  for (TokenId t = 0; t < inst.num_tokens(); ++t) {
    std::vector<VertexId> terminals;
    for (VertexId v = 0; v < inst.num_vertices(); ++v) {
      if (inst.want(v).test(t) && !inst.have(v).test(t)) terminals.push_back(v);
    }
    if (terminals.empty()) continue;
    const auto roots = inst.sources_of(t);
    if (roots.empty())
      throw Error("steiner_packing_schedule: token has no holder");
    const SteinerTree tree = steiner_tree(inst.graph(), roots, terminals);
    for (ArcId arc : tree.arcs) pending.push_back(PendingArc{t, arc, false});
  }

  std::vector<TokenSet> possession(n, TokenSet(universe));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    possession[static_cast<std::size_t>(v)] = inst.have(v);

  Schedule schedule;
  std::size_t remaining = pending.size();
  std::vector<std::int32_t> capacity_left(
      static_cast<std::size_t>(inst.graph().num_arcs()));
  while (remaining > 0) {
    for (ArcId a = 0; a < inst.graph().num_arcs(); ++a)
      capacity_left[static_cast<std::size_t>(a)] = inst.graph().arc(a).capacity;
    Timestep step;
    std::vector<TokenSet> next = possession;
    bool progress = false;
    for (PendingArc& move : pending) {
      if (move.done) continue;
      if (capacity_left[static_cast<std::size_t>(move.arc)] <= 0) continue;
      const Arc& arc = inst.graph().arc(move.arc);
      if (!possession[static_cast<std::size_t>(arc.from)].test(move.token))
        continue;  // tail not yet reached this step
      step.add(move.arc, move.token, universe);
      --capacity_left[static_cast<std::size_t>(move.arc)];
      next[static_cast<std::size_t>(arc.to)].set(move.token);
      move.done = true;
      --remaining;
      progress = true;
    }
    OCD_ASSERT_MSG(progress, "steiner packing stalled (broken tree)");
    possession = std::move(next);
    schedule.append(step);
  }
  return schedule;
}

}  // namespace ocd::core
