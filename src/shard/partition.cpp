#include "ocd/shard/partition.hpp"

#include <algorithm>
#include <string>

namespace ocd::shard {

namespace {

/// Deterministic BFS traversal order over the undirected skeleton:
/// lowest-id unvisited seed, neighbors in adjacency (CSR) order, out-
/// arcs before in-arcs.  Covers every vertex even in disconnected
/// graphs (each component restarts from its lowest id).
std::vector<VertexId> bfs_order(const Digraph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  std::vector<VertexId> queue;
  queue.reserve(n);
  for (VertexId seed = 0; seed < graph.num_vertices(); ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    visited[static_cast<std::size_t>(seed)] = 1;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      order.push_back(v);
      for (ArcId a : graph.out_arcs(v)) {
        const VertexId w = graph.arc(a).to;
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
      for (ArcId a : graph.in_arcs(v)) {
        const VertexId w = graph.arc(a).from;
        if (!visited[static_cast<std::size_t>(w)]) {
          visited[static_cast<std::size_t>(w)] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  return order;
}

}  // namespace

std::int32_t resolve_balance_eps(std::int32_t requested) {
  if (requested == -1 || requested == 0) return 0;
  throw Error("balance_eps must be -1 or 0 (the exact balance band; the "
              "slack went with the flow-refinement stage), got " +
              std::to_string(requested));
}

Partition partition_vertices(const Digraph& graph, std::int32_t num_shards,
                             std::int32_t refinement_sweeps) {
  PartitionOptions options;
  options.num_shards = num_shards;
  options.refinement_sweeps = refinement_sweeps;
  return partition_vertices(graph, options);
}

Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options) {
  const std::int32_t n = graph.num_vertices();
  const std::int32_t num_shards = options.num_shards;
  OCD_EXPECTS(num_shards >= 1);
  OCD_EXPECTS(num_shards <= std::max(n, 1));
  OCD_EXPECTS(options.refinement_sweeps >= 0);
  resolve_balance_eps(options.balance_eps);
  if (options.flow_refine)
    throw Error("flow_refine must be false: the flow-refinement stage "
                "was deleted");

  Partition part;
  part.num_shards = num_shards;
  part.shard_of.assign(static_cast<std::size_t>(n), 0);

  // Phase 1 — BFS-grow: chop the traversal order into num_shards
  // consecutive blocks; the first n%num_shards blocks take the ceiling
  // size so every shard lands in [lo, hi] exactly.  Consecutive BFS
  // vertices are graph-close, so blocks start out with most of their
  // adjacency internal.
  const auto hi =
      static_cast<std::int64_t>((n + num_shards - 1) / num_shards);
  const auto lo = static_cast<std::int64_t>(n / num_shards);
  const auto big_blocks = static_cast<std::int64_t>(n % num_shards);
  const std::vector<VertexId> order = bfs_order(graph);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto pos = static_cast<std::int64_t>(i);
    const std::int64_t s =
        pos < big_blocks * hi
            ? pos / std::max<std::int64_t>(hi, 1)
            : big_blocks + (pos - big_blocks * hi) /
                               std::max<std::int64_t>(lo, 1);
    part.shard_of[static_cast<std::size_t>(order[i])] =
        static_cast<std::int32_t>(std::min<std::int64_t>(s, num_shards - 1));
  }

  std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_shards), 0);
  for (std::int32_t s : part.shard_of) ++sizes[static_cast<std::size_t>(s)];

  // Phase 2 — greedy refinement sweeps in vertex-id order: move a
  // vertex to the shard holding the (strict) majority of its neighbors
  // when the move keeps every shard size within [lo, hi].  Gains are
  // evaluated against the current labels, so each sweep is
  // deterministic and terminates by construction; later sweeps see the
  // earlier ones' labels and keep chipping at the cut until a sweep
  // moves nothing (a local minimum) or the sweep budget runs out.
  // When num_shards divides n, lo == hi pins every size and no move
  // can pass the band, so the sweeps are skipped outright.
  if (num_shards > 1 && n % num_shards != 0) {
    std::vector<std::int64_t> freq(static_cast<std::size_t>(num_shards), 0);
    std::vector<std::int32_t> seen;
    seen.reserve(16);
    for (std::int32_t sweep = 0; sweep < options.refinement_sweeps; ++sweep) {
      std::int64_t moved = 0;
      for (VertexId v = 0; v < n; ++v) {
        const auto cur = static_cast<std::size_t>(
            part.shard_of[static_cast<std::size_t>(v)]);
        seen.clear();
        const auto tally = [&](VertexId w) {
          const auto s = static_cast<std::size_t>(
              part.shard_of[static_cast<std::size_t>(w)]);
          if (freq[s] == 0) seen.push_back(static_cast<std::int32_t>(s));
          ++freq[s];
        };
        for (ArcId a : graph.out_arcs(v)) tally(graph.arc(a).to);
        for (ArcId a : graph.in_arcs(v)) tally(graph.arc(a).from);
        std::int32_t best = static_cast<std::int32_t>(cur);
        std::int64_t best_freq = freq[cur];
        std::sort(seen.begin(), seen.end());  // lowest shard id wins ties
        for (std::int32_t s : seen) {
          if (freq[static_cast<std::size_t>(s)] > best_freq) {
            best_freq = freq[static_cast<std::size_t>(s)];
            best = s;
          }
        }
        for (std::int32_t s : seen) freq[static_cast<std::size_t>(s)] = 0;
        if (best != static_cast<std::int32_t>(cur) && sizes[cur] > lo &&
            sizes[static_cast<std::size_t>(best)] < hi) {
          part.shard_of[static_cast<std::size_t>(v)] = best;
          --sizes[cur];
          ++sizes[static_cast<std::size_t>(best)];
          ++moved;
        }
      }
      if (moved == 0) break;
    }
  }

  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    if (part.shard_of[static_cast<std::size_t>(arc.from)] !=
        part.shard_of[static_cast<std::size_t>(arc.to)])
      ++part.stats.cut_arcs;
  }
  part.stats.num_shards = num_shards;
  part.stats.total_arcs = graph.num_arcs();
  part.stats.min_owned = n == 0 ? 0 : *std::min_element(sizes.begin(),
                                                        sizes.end());
  part.stats.max_owned = n == 0 ? 0 : *std::max_element(sizes.begin(),
                                                        sizes.end());
  return part;
}

}  // namespace ocd::shard
