#include "ocd/shard/partition.hpp"

#include <algorithm>
#include <string>

namespace ocd::shard {

std::int32_t resolve_balance_eps(std::int32_t requested) {
  if (requested == -1 || requested == 0) return 0;
  throw Error("balance_eps must be -1 or 0 (the exact balance band; the "
              "slack went with the flow-refinement stage), got " +
              std::to_string(requested));
}

Partition partition_vertices(const Digraph& graph, std::int32_t num_shards) {
  const std::int32_t n = graph.num_vertices();
  OCD_EXPECTS(num_shards >= 1);
  OCD_EXPECTS(num_shards <= std::max(n, 1));

  Partition part;
  part.num_shards = num_shards;
  part.shard_of.resize(static_cast<std::size_t>(n));
  const auto bound = [&](std::int64_t s) {
    return part.shard_of.begin() + s * n / num_shards;
  };
  for (std::int32_t s = 0; s < num_shards; ++s)
    std::fill(bound(s), bound(s + 1), s);
  // One shard owns every vertex: no arc crosses.
  if (num_shards == 1) return part;

  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    if (part.shard_of[static_cast<std::size_t>(arc.from)] !=
        part.shard_of[static_cast<std::size_t>(arc.to)])
      ++part.stats.cut_arcs;
  }
  return part;
}

Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options) {
  resolve_balance_eps(options.balance_eps);
  if (options.flow_refine)
    throw Error("flow_refine must be false: the flow-refinement stage "
                "was deleted");
  return partition_vertices(graph, options.num_shards);
}

}  // namespace ocd::shard
