#include "ocd/graph/algorithms.hpp"

#include <algorithm>

namespace ocd {

namespace {

// Generic BFS over an adjacency accessor: next(v) yields neighbor ids.
// Each vertex enters the FIFO at most once, so one vector of capacity n
// holds it (a std::queue would allocate a block per 128 vertices).
template <typename NextFn>
std::vector<std::int32_t> bfs(std::int32_t n, VertexId source, NextFn&& next) {
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n), kUnreachable);
  std::vector<VertexId> fifo;
  fifo.reserve(static_cast<std::size_t>(n));
  dist[static_cast<std::size_t>(source)] = 0;
  fifo.push_back(source);
  for (std::size_t head = 0; head < fifo.size(); ++head) {
    const VertexId u = fifo[head];
    const std::int32_t du = dist[static_cast<std::size_t>(u)];
    next(u, [&](VertexId v) {
      auto& dv = dist[static_cast<std::size_t>(v)];
      if (dv == kUnreachable) {
        dv = du + 1;
        fifo.push_back(v);
      }
    });
  }
  return dist;
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const Digraph& g, VertexId source) {
  OCD_EXPECTS(g.valid_vertex(source));
  return bfs(g.num_vertices(), source, [&](VertexId u, auto&& visit) {
    for (ArcId id : g.out_arcs(u)) visit(g.arc(id).to);
  });
}

std::vector<std::int32_t> bfs_distances_to(const Digraph& g, VertexId target) {
  OCD_EXPECTS(g.valid_vertex(target));
  return bfs(g.num_vertices(), target, [&](VertexId u, auto&& visit) {
    for (ArcId id : g.in_arcs(u)) visit(g.arc(id).from);
  });
}

bool is_strongly_connected(const Digraph& g) {
  if (g.num_vertices() <= 1) return true;
  const auto fwd = bfs_distances(g, 0);
  if (std::any_of(fwd.begin(), fwd.end(),
                  [](std::int32_t d) { return d == kUnreachable; }))
    return false;
  const auto bwd = bfs_distances_to(g, 0);
  return std::none_of(bwd.begin(), bwd.end(),
                      [](std::int32_t d) { return d == kUnreachable; });
}

bool is_weakly_connected(const Digraph& g) {
  if (g.num_vertices() <= 1) return true;
  const auto dist =
      bfs(g.num_vertices(), 0, [&](VertexId u, auto&& visit) {
        for (ArcId id : g.out_arcs(u)) visit(g.arc(id).to);
        for (ArcId id : g.in_arcs(u)) visit(g.arc(id).from);
      });
  return std::none_of(dist.begin(), dist.end(),
                      [](std::int32_t d) { return d == kUnreachable; });
}

std::int32_t diameter(const Digraph& g) {
  if (g.num_vertices() <= 1) return 0;
  std::int32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::int32_t d : bfs_distances(g, v)) {
      if (d == kUnreachable) return kUnreachable;
      best = std::max(best, d);
    }
  }
  return best;
}

std::vector<VertexId> in_ball(const Digraph& g, VertexId v,
                              std::int32_t radius) {
  OCD_EXPECTS(radius >= 0);
  const auto dist = bfs_distances_to(g, v);
  std::vector<VertexId> ball;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (dist[static_cast<std::size_t>(u)] <= radius) ball.push_back(u);
  }
  return ball;
}

}  // namespace ocd
