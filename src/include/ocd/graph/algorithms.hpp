// Graph algorithms used across the library: BFS hop distances,
// connectivity tests, diameter, and the radius-i closures that power the
// paper's M_i(v) makespan lower bound.
#pragma once

#include <limits>
#include <vector>

#include "ocd/graph/digraph.hpp"

namespace ocd {

/// Marker for "unreachable" in hop-distance vectors.
inline constexpr std::int32_t kUnreachable =
    std::numeric_limits<std::int32_t>::max();

/// Hop distances from `source` following arcs forward.
std::vector<std::int32_t> bfs_distances(const Digraph& g, VertexId source);

/// Hop distances *to* `target` following arcs backward (distance each
/// vertex must cover to reach target).
std::vector<std::int32_t> bfs_distances_to(const Digraph& g, VertexId target);

/// Every vertex reachable from every other (following arc direction).
bool is_strongly_connected(const Digraph& g);

/// Connected when arc directions are ignored.
bool is_weakly_connected(const Digraph& g);

/// Largest finite pairwise hop distance; kUnreachable when disconnected,
/// 0 for graphs with fewer than two vertices.
std::int32_t diameter(const Digraph& g);

/// Vertices within `radius` hops of v following arcs *backward* — the
/// in-ball used by the paper's closure bound (tokens inside the ball
/// could reach v within `radius` timesteps, capacity permitting).
std::vector<VertexId> in_ball(const Digraph& g, VertexId v,
                              std::int32_t radius);

}  // namespace ocd
