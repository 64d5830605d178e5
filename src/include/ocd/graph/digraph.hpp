// Arc-indexed weighted digraph.
//
// This is the G = (V, E), c : E -> N of the paper: a simple directed
// graph whose arc weights are capacities (tokens per timestep).  Arcs are
// identified by dense ArcIds so per-arc simulator state (send sets,
// round-robin cursors, plans) lives in flat vectors.
//
// Adjacency has one form, CSR (compressed sparse row): per direction,
// an offset per vertex into one flat array of arc ids, each vertex's
// slice listing its arcs in insertion order.  finalize() lays it out in
// one counting-sort pass over the arcs.  Duplicate lookups (find_arc,
// and through it add_arc's simplicity check) never read the CSR: they
// walk a per-tail chain threaded through the arc ids, 4 bytes per
// vertex and 4 per arc, so building a graph allocates nothing per
// vertex.
//
// Two rules come with the lazily built CSR:
//  * A stale graph (arcs added since the last finalize()) rebuilds the
//    CSR on its next out_arcs / in_arcs call, so those const accessors
//    write the graph's adjacency cache.  Only the one thread adding
//    arcs may read a stale graph; concurrent readers need a finalized
//    one.  Every topology generator returns its graph finalized, and
//    core::Instance finalizes the graph it owns.
//  * Interleaving add_arc with adjacency reads on one graph rebuilds
//    the whole CSR at the first read after each add.  Add all arcs first,
//    then read (reading a different graph meanwhile is fine, as the
//    physical projection reads the physical graph while it adds arcs
//    to the overlay).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ocd/util/error.hpp"

namespace ocd {

using VertexId = std::int32_t;
using ArcId = std::int32_t;

/// One directed arc (u, v) with capacity c(u, v) >= 1.
struct Arc {
  VertexId from = -1;
  VertexId to = -1;
  std::int32_t capacity = 0;
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::int32_t num_vertices);

  [[nodiscard]] std::int32_t num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::int32_t num_arcs() const noexcept {
    return static_cast<std::int32_t>(arcs_.size());
  }

  /// Adds arc (from, to) with the given capacity and returns its id.
  /// The graph must stay simple: adding a duplicate arc is a contract
  /// violation (the paper folds multi-arcs into one arc whose capacity is
  /// the sum; callers wanting that behaviour use add_or_merge_arc).
  ArcId add_arc(VertexId from, VertexId to, std::int32_t capacity);

  /// Adds (from, to) or, if present, increases its capacity.
  ArcId add_or_merge_arc(VertexId from, VertexId to, std::int32_t capacity);

  [[nodiscard]] const Arc& arc(ArcId id) const {
    OCD_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < arcs_.size());
    return arcs_[static_cast<std::size_t>(id)];
  }

  /// Id of arc (from, to), or -1 when absent.  Walks from's lookup
  /// chain: O(out-degree), stale or finalized alike.
  [[nodiscard]] ArcId find_arc(VertexId from, VertexId to) const;

  [[nodiscard]] bool has_arc(VertexId from, VertexId to) const {
    return find_arc(from, to) >= 0;
  }

  /// Ids of arcs leaving / entering v, in insertion order: slices of
  /// one contiguous CSR array, so iterating all vertices in order walks
  /// memory linearly.  On a stale graph the call first rebuilds the CSR
  /// (see the rules at the top of this file).
  [[nodiscard]] std::span<const ArcId> out_arcs(VertexId v) const;
  [[nodiscard]] std::span<const ArcId> in_arcs(VertexId v) const;

  /// Lays out the CSR arrays if arcs were added since the last call;
  /// idempotent.  Call it once the last arc is in, before the graph is
  /// shared between threads.
  void finalize();
  [[nodiscard]] bool finalized() const noexcept { return csr_valid_; }

  /// Out-/in-neighbour vertex lists (deduplicated by simplicity).
  [[nodiscard]] std::vector<VertexId> out_neighbors(VertexId v) const;
  [[nodiscard]] std::vector<VertexId> in_neighbors(VertexId v) const;

  /// Sum of capacities into v (the paper's indegree used by the M_i(v)
  /// bound counts incoming capacity).
  [[nodiscard]] std::int64_t in_capacity(VertexId v) const;
  [[nodiscard]] std::int64_t out_capacity(VertexId v) const;

  [[nodiscard]] bool valid_vertex(VertexId v) const noexcept {
    return v >= 0 && v < num_vertices_;
  }

  [[nodiscard]] const std::vector<Arc>& arcs() const noexcept { return arcs_; }

 private:
  /// Appends an arc the caller has checked; no lookup.
  ArcId append_arc(VertexId from, VertexId to, std::int32_t capacity);
  /// Counting sort of the arc ids by tail and by head into the CSR.
  void build_csr() const;

  std::int32_t num_vertices_ = 0;
  std::vector<Arc> arcs_;
  // find_arc's lookup chain: out_head_[v] is v's most recently added
  // out-arc (-1 when none) and next_out_[a] the out-arc of the same
  // tail added before a (-1 at the end).
  std::vector<ArcId> out_head_;
  std::vector<ArcId> next_out_;
  // The CSR, a cache over arcs_: out_offsets_[v]..out_offsets_[v+1]
  // slices out_csr_ for vertex v, likewise in_*.  Valid iff csr_valid_.
  mutable bool csr_valid_ = false;
  mutable std::vector<std::int32_t> out_offsets_;
  mutable std::vector<std::int32_t> in_offsets_;
  mutable std::vector<ArcId> out_csr_;
  mutable std::vector<ArcId> in_csr_;
};

}  // namespace ocd
