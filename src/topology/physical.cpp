#include "ocd/topology/physical.hpp"

#include <algorithm>
#include <queue>

#include "ocd/graph/algorithms.hpp"

namespace ocd::topology {

namespace {

/// BFS shortest path from `from` to `to` returning arc ids, or empty
/// when unreachable (callers guarantee connectivity).
std::vector<ArcId> shortest_path_arcs(const Digraph& g, VertexId from,
                                      VertexId to) {
  std::vector<ArcId> parent_arc(static_cast<std::size_t>(g.num_vertices()),
                                -1);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_vertices()), false);
  std::queue<VertexId> frontier;
  seen[static_cast<std::size_t>(from)] = true;
  frontier.push(from);
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    if (u == to) break;
    for (ArcId a : g.out_arcs(u)) {
      const VertexId w = g.arc(a).to;
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        parent_arc[static_cast<std::size_t>(w)] = a;
        frontier.push(w);
      }
    }
  }
  std::vector<ArcId> path;
  if (!seen[static_cast<std::size_t>(to)]) return path;
  for (VertexId v = to; v != from;) {
    const ArcId a = parent_arc[static_cast<std::size_t>(v)];
    OCD_ASSERT(a >= 0);
    path.push_back(a);
    v = g.arc(a).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

OverlayProjection project_overlay(const PhysicalOptions& opt, Rng& rng) {
  OCD_EXPECTS(opt.routers >= 2);
  OCD_EXPECTS(opt.hosts >= 2 && opt.hosts <= opt.routers);
  OCD_EXPECTS(opt.max_overlay_capacity >= 1);

  OverlayProjection projection;

  // Physical router network: connected random bidirectional graph.
  RandomGraphOptions physical_options;
  physical_options.edge_probability = opt.router_edge_probability;
  physical_options.capacities = opt.physical_capacities;
  projection.physical = random_overlay(opt.routers, physical_options, rng);

  // Hosts on distinct routers.
  const auto chosen = rng.sample_indices(
      static_cast<std::size_t>(opt.routers), static_cast<std::size_t>(opt.hosts));
  projection.host_router.assign(chosen.begin(), chosen.end());

  // Logical edges: random pairs plus a ring for strong connectivity.
  std::vector<std::pair<VertexId, VertexId>> logical_edges;
  for (VertexId a = 0; a < opt.hosts; ++a) {
    for (VertexId b = a + 1; b < opt.hosts; ++b) {
      if (rng.chance(opt.overlay_edge_probability))
        logical_edges.emplace_back(a, b);
    }
  }
  for (VertexId a = 0; a < opt.hosts; ++a)
    logical_edges.emplace_back(a, (a + 1) % opt.hosts);

  projection.overlay = Digraph(opt.hosts);
  // physical arc id -> overlay arcs using it.
  std::vector<std::vector<ArcId>> users(
      static_cast<std::size_t>(projection.physical.num_arcs()));

  auto add_logical_arc = [&](VertexId from, VertexId to) {
    if (projection.overlay.has_arc(from, to)) return;
    const auto path = shortest_path_arcs(
        projection.physical,
        projection.host_router[static_cast<std::size_t>(from)],
        projection.host_router[static_cast<std::size_t>(to)]);
    OCD_ASSERT_MSG(!path.empty() || projection.host_router[static_cast<std::size_t>(from)] ==
                                        projection.host_router[static_cast<std::size_t>(to)],
                   "physical network must be connected");
    std::int32_t capacity = opt.max_overlay_capacity;
    for (ArcId a : path) {
      capacity = std::min(capacity, projection.physical.arc(a).capacity);
    }
    capacity = std::max(capacity, 1);
    const ArcId overlay_arc = projection.overlay.add_arc(from, to, capacity);
    OCD_ASSERT(static_cast<std::size_t>(overlay_arc) ==
               projection.route.size());
    projection.route.push_back(path);
    for (ArcId a : path) users[static_cast<std::size_t>(a)].push_back(overlay_arc);
  };

  for (const auto& [a, b] : logical_edges) {
    add_logical_arc(a, b);
    add_logical_arc(b, a);
  }

  // Capacity groups for shared physical arcs.
  for (ArcId a = 0; a < projection.physical.num_arcs(); ++a) {
    auto& sharing = users[static_cast<std::size_t>(a)];
    if (sharing.size() < 2) continue;
    CapacityGroup group;
    group.members = std::move(sharing);
    group.capacity = projection.physical.arc(a).capacity;
    group.physical_arc = a;
    projection.groups.push_back(std::move(group));
  }

  projection.overlay.finalize();
  OCD_ENSURES(is_strongly_connected(projection.overlay));
  return projection;
}

bool groups_respected(const std::vector<CapacityGroup>& groups,
                      const core::Schedule& schedule) {
  for (const core::Timestep& step : schedule.steps()) {
    for (const CapacityGroup& group : groups) {
      std::int64_t used = 0;
      for (const core::ArcSend& send : step.sends()) {
        if (std::find(group.members.begin(), group.members.end(), send.arc) !=
            group.members.end()) {
          used += static_cast<std::int64_t>(send.tokens.count());
        }
      }
      if (used > group.capacity) return false;
    }
  }
  return true;
}

}  // namespace ocd::topology
