// Partitioner contract: shard s owns the contiguous vertex-id range
// [⌊s·n/k⌋, ⌊(s+1)·n/k⌋), which covers every vertex once and balances
// ownership within one vertex, and stats.cut_arcs counts exactly the
// crossing arcs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "ocd/shard/partition.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/util/error.hpp"

namespace ocd::shard {
namespace {

Digraph overlay(std::int32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return topology::random_overlay(n, rng);
}

/// Ownership class sizes, from the one ownership map.
std::vector<std::int64_t> class_sizes(const Partition& part) {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(part.num_shards),
                                  0);
  for (std::int32_t s : part.shard_of) ++sizes[static_cast<std::size_t>(s)];
  return sizes;
}

std::int64_t crossing_arcs(const Digraph& g, const Partition& part) {
  std::int64_t cut = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    if (part.shard_of[static_cast<std::size_t>(arc.from)] !=
        part.shard_of[static_cast<std::size_t>(arc.to)])
      ++cut;
  }
  return cut;
}

TEST(ShardPartition, CoversEveryVertexExactlyOnce) {
  const Digraph g = overlay(50, 3);
  for (std::int32_t shards : {1, 2, 4, 7}) {
    const Partition part = partition_vertices(g, shards);
    ASSERT_EQ(part.num_shards, shards);
    ASSERT_EQ(part.shard_of.size(), static_cast<std::size_t>(50));
    for (std::int32_t s : part.shard_of) {
      EXPECT_GE(s, 0) << shards;
      EXPECT_LT(s, shards) << shards;
    }
    for (std::int64_t size : class_sizes(part)) EXPECT_GT(size, 0) << shards;
  }
}

TEST(ShardPartition, BalancesOwnershipWithinOneVertex) {
  const Digraph g = overlay(53, 9);
  for (std::int32_t shards : {2, 3, 4, 8}) {
    const Partition part = partition_vertices(g, shards);
    const std::int64_t lo = 53 / shards;
    const std::int64_t hi = (53 + shards - 1) / shards;
    for (std::int64_t size : class_sizes(part)) {
      EXPECT_GE(size, lo) << shards;
      EXPECT_LE(size, hi) << shards;
    }
  }
}

TEST(ShardPartition, CutTableListsExactlyTheCrossingArcs) {
  const Digraph g = overlay(40, 5);
  const Partition part = partition_vertices(g, 4);
  // Exactness: the count is the number of arcs whose endpoints differ.
  EXPECT_EQ(part.stats.cut_arcs, crossing_arcs(g, part));
  EXPECT_GT(part.stats.cut_arcs, 0);
}

TEST(ShardPartition, SingleShardHasNoCutAndNoGhosts) {
  const Digraph g = overlay(20, 1);
  const Partition part = partition_vertices(g, 1);
  EXPECT_EQ(part.stats.cut_arcs, 0);
  EXPECT_EQ(part.shard_of, std::vector<std::int32_t>(20, 0));
  EXPECT_EQ(part.num_shards, 1);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  const Digraph g = overlay(60, 42);
  const Partition a = partition_vertices(g, 4);
  const Partition b = partition_vertices(g, 4);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.stats.cut_arcs, b.stats.cut_arcs);
}

TEST(ShardPartition, ShardsOwnContiguousVertexIdRanges) {
  // The whole contract: shard s owns [⌊s·n/k⌋, ⌊(s+1)·n/k⌋), so
  // shard_of never decreases along the vertex ids.  n = k, k | n and
  // k ∤ n are all covered.
  for (const std::int32_t n : {2, 7, 8, 53, 160}) {
    const Digraph g = overlay(n, 31);
    for (const std::int32_t shards : {1, 2, 3, 4, 7, 8}) {
      if (shards > n) continue;
      const Partition part = partition_vertices(g, shards);
      ASSERT_EQ(part.shard_of.size(), static_cast<std::size_t>(n));
      for (std::int32_t s = 0; s < shards; ++s) {
        const std::int64_t begin = std::int64_t{s} * n / shards;
        const std::int64_t end = std::int64_t{s + 1} * n / shards;
        for (std::int64_t v = begin; v < end; ++v)
          EXPECT_EQ(part.shard_of[static_cast<std::size_t>(v)], s)
              << "n " << n << " k " << shards << " v " << v;
      }
      EXPECT_TRUE(std::is_sorted(part.shard_of.begin(), part.shard_of.end()))
          << "n " << n << " k " << shards;
      EXPECT_EQ(part.stats.cut_arcs, crossing_arcs(g, part))
          << "n " << n << " k " << shards;
    }
  }
}

// --- Leftovers of the deleted balance slack and flow stage ------------

TEST(ShardPartitionBalanceEps, ResolvesRequestsAndEnvironment) {
  EXPECT_EQ(resolve_balance_eps(-1), 0);
  EXPECT_EQ(resolve_balance_eps(0), 0);
  for (const std::int32_t bad : {-2, 1, 5, 100, 101}) {
    try {
      resolve_balance_eps(bad);
      FAIL() << "expected rejection of " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("balance_eps"), std::string::npos)
          << e.what();
    }
  }
  // The variable is no longer read.
  setenv("OCD_SHARD_BALANCE_EPS", "15", 1);
  EXPECT_EQ(resolve_balance_eps(-1), 0);
  unsetenv("OCD_SHARD_BALANCE_EPS");
}

TEST(ShardPartitionBalanceEps, PartitionRefusesTheDeletedOptions) {
  const Digraph g = overlay(60, 42);
  PartitionOptions options;
  options.num_shards = 4;
  // Both overloads build the same partition.
  const Partition plain = partition_vertices(g, 4);
  for (const std::int32_t eps : {-1, 0}) {
    options.balance_eps = eps;
    const Partition part = partition_vertices(g, options);
    EXPECT_EQ(part.num_shards, plain.num_shards);
    EXPECT_EQ(part.shard_of, plain.shard_of);
    EXPECT_EQ(part.stats.cut_arcs, plain.stats.cut_arcs);
  }
  const auto expect_refused = [&](const PartitionOptions& bad,
                                  const char* field) {
    try {
      partition_vertices(g, bad);
      FAIL() << "expected rejection naming " << field;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  PartitionOptions flow = options;
  flow.flow_refine = true;
  expect_refused(flow, "flow_refine");
  PartitionOptions eps = options;
  eps.balance_eps = 5;
  expect_refused(eps, "balance_eps");
}

}  // namespace
}  // namespace ocd::shard
