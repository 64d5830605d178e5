// Vertex partitioning for the sharded runtime.
//
// A Partition splits the vertex set into `num_shards` ownership classes,
// stored once as the owning shard of every vertex.  Each shard owns a
// contiguous-ish block of the overlay (BFS-grown, then greedily refined
// to shrink the edge cut) and plans the sends of the vertices it owns
// (ocd/shard/runtime.hpp).  Shards share memory, so the cut prices no
// traffic; PartitionStats reports it as partition quality.
//
// The partitioner is deterministic and seedless: the same (graph,
// options) always yields the same Partition.  Every ownership class
// lands in the exact band [⌊n/k⌋, ⌈n/k⌉]; when k | n that band pins
// every class size, so the greedy sweeps have nothing to move and are
// skipped.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/graph/digraph.hpp"

namespace ocd::shard {

/// Edge-cut quality report, printed by bench/fig_shard and asserted
/// loosely by tests (a partitioner regression shows up as a cut blowup).
struct PartitionStats {
  std::int32_t num_shards = 1;
  std::int64_t total_arcs = 0;
  std::int64_t cut_arcs = 0;        ///< arcs crossing shards
  std::int64_t min_owned = 0;       ///< smallest ownership class
  std::int64_t max_owned = 0;       ///< largest ownership class

  [[nodiscard]] double cut_fraction() const noexcept {
    return total_arcs == 0
               ? 0.0
               : static_cast<double>(cut_arcs) /
                     static_cast<double>(total_arcs);
  }
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

struct PartitionOptions {
  std::int32_t num_shards = 1;
  /// Greedy neighbor-majority refinement sweep budget (see below).
  std::int32_t refinement_sweeps = 1;
  /// Leftovers of the deleted balance slack and flow-refinement stage,
  /// kept only because perfbench sets them (removed with ROADMAP item
  /// 2's benchmark change).  partition_vertices throws ocd::Error
  /// naming the field unless balance_eps is -1 or 0 and flow_refine is
  /// false.
  std::int32_t balance_eps = -1;
  bool flow_refine = false;
};

/// Partitions the graph's vertices into `num_shards` ownership classes:
/// BFS-grow blocks of (near-)equal size in deterministic traversal
/// order, then up to `refinement_sweeps` greedy refinement sweeps, each
/// moving vertices to their neighbor-majority shard where that strictly
/// reduces the cut without breaking the size bounds.  Sweeps after the
/// first act on the previous sweep's labels, so they keep converging
/// toward a local cut minimum; the loop stops early at the first sweep
/// that moves nothing.  0 sweeps = raw BFS blocks; the runtime default
/// is 1 (bit-compatible with the historical single-sweep partition);
/// bench/fig_shard reports the cut reduction of deeper refinement.
/// Requires 1 <= num_shards <= num_vertices and refinement_sweeps >= 0.
Partition partition_vertices(const Digraph& graph, std::int32_t num_shards,
                             std::int32_t refinement_sweeps = 1);

/// As above with the option struct; {k, sweeps} reproduces the
/// two-argument overload bit-for-bit.
Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options);

}  // namespace ocd::shard
