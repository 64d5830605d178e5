// Vertex ownership for the sharded runtime.
//
// A Partition splits the vertex set into `num_shards` ownership classes,
// stored once as the owning shard of every vertex.  Each shard plans the
// sends of the vertices it owns (ocd/shard/runtime.hpp).
//
// partition_vertices gives shard s the contiguous vertex-id range
// [⌊s·n/k⌋, ⌊(s+1)·n/k⌋): arithmetic in O(n), no traversal, and every
// class lands in the band [⌊n/k⌋, ⌈n/k⌉].  Nothing about the graph is
// worth optimising: in the LOCD model (§4.1) each vertex plans from its
// own knowledge of the step-start state, so which shard plans a vertex
// cannot change the schedule, and the shards share memory, so an edge
// cut prices no traffic.  run_sharded's Partition overload accepts any
// ownership map; the determinism suites pass non-contiguous ones.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/graph/digraph.hpp"

namespace ocd::shard {

/// Kept only because perfbench reports cut_arcs as shard.cut_arcs
/// (removed with ROADMAP item 2's benchmark change).
struct PartitionStats {
  std::int64_t cut_arcs = 0;  ///< arcs whose endpoints differ in shard
};

struct Partition {
  std::int32_t num_shards = 1;
  /// Owning shard per vertex, each in [0, num_shards).
  std::vector<std::int32_t> shard_of;
  PartitionStats stats;
};

/// Leftover of the deleted balance slack, kept only because perfbench
/// names it (removed with ROADMAP item 2's benchmark change): returns 0
/// for -1 and 0 and throws ocd::Error naming balance_eps for anything
/// else.  The environment is no longer consulted.
std::int32_t resolve_balance_eps(std::int32_t requested);

/// Kept only because perfbench partitions through it (removed with
/// ROADMAP item 2's benchmark change).  balance_eps and flow_refine are
/// leftovers of the deleted balance slack and flow-refinement stage:
/// partition_vertices throws ocd::Error naming the field unless
/// balance_eps is -1 or 0 and flow_refine is false.
struct PartitionOptions {
  std::int32_t num_shards = 1;
  std::int32_t balance_eps = -1;
  bool flow_refine = false;
};

/// Shard s owns the vertex ids [⌊s·n/k⌋, ⌊(s+1)·n/k⌋), k = num_shards;
/// stats.cut_arcs counts the arcs between shards.
/// Requires 1 <= num_shards <= max(num_vertices, 1).
Partition partition_vertices(const Digraph& graph, std::int32_t num_shards);

/// As above with the option struct, after its leftover fields' checks.
Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options);

}  // namespace ocd::shard
