// Ownership maps the shard equivalence suites run besides
// partition_vertices' contiguous vertex-id ranges.  Which shard plans a
// vertex cannot change the schedule (the LOCD model, §4.1), so every
// map must reproduce sim::run bit-for-bit; maps that are neither
// contiguous nor balanced are the proof.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "ocd/shard/partition.hpp"
#include "ocd/util/rng.hpp"

namespace ocd::shard {

/// Vertex v on shard v % num_shards: the plan merge switches shards at
/// every sender and interleaves arc ids finely.
inline Partition striped_partition(std::int32_t num_vertices,
                                   std::int32_t num_shards) {
  Partition part;
  part.num_shards = num_shards;
  for (VertexId v = 0; v < num_vertices; ++v)
    part.shard_of.push_back(v % num_shards);
  return part;
}

/// A seeded map with non-contiguous, unequal classes: the shuffled
/// vertex ids cut into classes of sizes proportional to 1, 2, ...,
/// num_shards.  Every class is nonempty when num_vertices is at least
/// num_shards · (num_shards + 1) / 2.
inline Partition random_partition(std::int32_t num_vertices,
                                  std::int32_t num_shards,
                                  std::uint64_t seed) {
  std::vector<VertexId> order(static_cast<std::size_t>(num_vertices));
  std::iota(order.begin(), order.end(), VertexId{0});
  Rng rng(seed);
  rng.shuffle(order);
  const std::int64_t total_weight =
      std::int64_t{num_shards} * (num_shards + 1) / 2;
  Partition part;
  part.num_shards = num_shards;
  part.shard_of.assign(order.size(), 0);
  std::int64_t begin = 0;
  for (std::int32_t s = 0; s < num_shards; ++s) {
    const std::int64_t weight_so_far = std::int64_t{s + 1} * (s + 2) / 2;
    const std::int64_t end = num_vertices * weight_so_far / total_weight;
    for (std::int64_t i = begin; i < end; ++i)
      part.shard_of[static_cast<std::size_t>(
          order[static_cast<std::size_t>(i)])] = s;
    begin = end;
  }
  return part;
}

struct LabeledPartition {
  std::string label;
  Partition partition;
};

/// Striped maps at 2 and 3 shards and seeded random maps at 2, 3 and 4.
inline std::vector<LabeledPartition> irregular_partitions(
    std::int32_t num_vertices) {
  std::vector<LabeledPartition> maps;
  for (const std::int32_t shards : {2, 3})
    maps.push_back({"striped shards=" + std::to_string(shards),
                    striped_partition(num_vertices, shards)});
  for (const std::int32_t shards : {2, 3, 4})
    maps.push_back({"random shards=" + std::to_string(shards),
                    random_partition(num_vertices, shards,
                                     0x0dd5'0000 + shards)});
  return maps;
}

}  // namespace ocd::shard
