// Partitioner contract: deterministic, covering, balanced, with an
// exact cut count — everything the sharded plan phase and fig_shard's
// cut columns assume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "ocd/shard/partition.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"
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
    EXPECT_GE(part.stats.min_owned, lo);
    EXPECT_LE(part.stats.max_owned, hi);
  }
}

TEST(ShardPartition, CutTableListsExactlyTheCrossingArcs) {
  const Digraph g = overlay(40, 5);
  const Partition part = partition_vertices(g, 4);
  // Exactness: the count is the number of arcs whose endpoints differ.
  EXPECT_EQ(part.stats.cut_arcs, crossing_arcs(g, part));
  EXPECT_GT(part.stats.cut_arcs, 0);
  EXPECT_EQ(part.stats.total_arcs, g.num_arcs());
  EXPECT_GE(part.stats.cut_fraction(), 0.0);
  EXPECT_LE(part.stats.cut_fraction(), 1.0);
}

TEST(ShardPartition, SingleShardHasNoCutAndNoGhosts) {
  const Digraph g = overlay(20, 1);
  const Partition part = partition_vertices(g, 1);
  EXPECT_EQ(part.stats.cut_arcs, 0);
  EXPECT_EQ(part.shard_of, std::vector<std::int32_t>(20, 0));
  EXPECT_EQ(part.stats.cut_fraction(), 0.0);
  EXPECT_EQ(part.stats.num_shards, 1);
  EXPECT_EQ(part.stats.total_arcs, g.num_arcs());
  EXPECT_EQ(part.stats.min_owned, 20);
  EXPECT_EQ(part.stats.max_owned, 20);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  const Digraph g = overlay(60, 42);
  const Partition a = partition_vertices(g, 4);
  const Partition b = partition_vertices(g, 4);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.stats.cut_arcs, b.stats.cut_arcs);
}

TEST(ShardPartition, RefinementKeepsTheCutBelowRandomAssignment) {
  // Loose regression bound: the BFS-grown, refined partition must beat
  // round-robin vertex assignment on a sparse overlay.
  const Digraph g = overlay(120, 8);
  const Partition part = partition_vertices(g, 4);
  std::int64_t striped_cut = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const Arc& arc = g.arc(a);
    if (arc.from % 4 != arc.to % 4) ++striped_cut;
  }
  EXPECT_LT(part.stats.cut_arcs, striped_cut);
}

TEST(ShardPartition, MultiSweepRefinementOnlyImprovesTheCut) {
  // Deeper refinement must never cost cut quality and must keep the
  // balance bounds; on a sparse overlay it should strictly help.
  const Digraph g = overlay(160, 12);
  for (std::int32_t shards : {2, 4, 8}) {
    const Partition raw = partition_vertices(g, shards, 0);
    const Partition one = partition_vertices(g, shards, 1);
    const Partition deep = partition_vertices(g, shards, 8);
    EXPECT_LE(one.stats.cut_arcs, raw.stats.cut_arcs) << shards;
    EXPECT_LE(deep.stats.cut_arcs, one.stats.cut_arcs) << shards;
    const std::int64_t lo = 160 / shards;
    const std::int64_t hi = (160 + shards - 1) / shards;
    EXPECT_GE(deep.stats.min_owned, lo) << shards;
    EXPECT_LE(deep.stats.max_owned, hi) << shards;
  }
  // A strict multi-sweep win on a representative configuration (dense
  // cut, many shards), or the extra sweeps are dead code: at 8 shards
  // on a 100-vertex overlay the single sweep is far from the local
  // minimum.
  const Digraph h = overlay(100, 21);
  const Partition one = partition_vertices(h, 8, 1);
  const Partition deep = partition_vertices(h, 8, 8);
  EXPECT_LT(deep.stats.cut_arcs, one.stats.cut_arcs);
}

TEST(ShardPartition, MultiSweepConvergesAndStaysDeterministic) {
  const Digraph g = overlay(100, 21);
  // Once a sweep moves nothing the loop stops, so any budget at or past
  // convergence yields the identical partition.
  const Partition big = partition_vertices(g, 4, 64);
  const Partition bigger = partition_vertices(g, 4, 1 << 20);
  EXPECT_EQ(big.shard_of, bigger.shard_of);
  const Partition again = partition_vertices(g, 4, 64);
  EXPECT_EQ(big.shard_of, again.shard_of);
  // The default stays bit-compatible with the historical single sweep.
  EXPECT_EQ(partition_vertices(g, 4).shard_of,
            partition_vertices(g, 4, 1).shard_of);
}

Digraph transit_stub_overlay(std::int32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return topology::transit_stub(topology::transit_stub_options_for_size(n),
                                rng);
}

/// FNV-1a over the ownership map, then the cut count: one 64-bit value
/// that moves if any vertex changes shard.
std::uint64_t partition_digest(const Partition& part) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::int32_t s : part.shard_of)
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)));
  mix(static_cast<std::uint64_t>(part.stats.cut_arcs));
  return h;
}

TEST(ShardPartition, GoldenPartitionsMatchTheGreedyPartitioner) {
  // Recorded from the partitioner as it stood before the flow stage
  // and the balance slack were deleted and the k | n sweep skip was
  // added: the surviving BFS-grow + greedy path, skip included, must
  // reproduce every partition bit-for-bit.  The overlay has 160
  // vertices and the transit-stub graph 315, so k = 2, 4, 8 take the
  // skip on the first and run the sweeps on the second, and k = 3, 7
  // the other way round.
  struct Golden {
    std::int32_t graph;  ///< 0 = overlay(160, 12), 1 = transit-stub(300)
    std::int32_t shards;
    std::int32_t sweeps;
    std::int64_t cut_arcs;
    std::uint64_t digest;
  };
  const Digraph graphs[] = {overlay(160, 12), transit_stub_overlay(300, 5)};
  const Golden golden[] = {
      {0, 2, 0, 678, 0xb9c43918e03792b9ULL},
      {0, 2, 1, 678, 0xb9c43918e03792b9ULL},
      {0, 2, 8, 678, 0xb9c43918e03792b9ULL},
      {0, 3, 0, 980, 0xffc87e619578a1f7ULL},
      {0, 3, 1, 850, 0x3d67c167441a01c4ULL},
      {0, 3, 8, 712, 0x05e9d777cb525c18ULL},
      {0, 4, 0, 1100, 0x74a5eb1f3b18e415ULL},
      {0, 4, 1, 1100, 0x74a5eb1f3b18e415ULL},
      {0, 4, 8, 1100, 0x74a5eb1f3b18e415ULL},
      {0, 7, 0, 1326, 0xb6cdf7774457a2f9ULL},
      {0, 7, 1, 1198, 0xf2dd5f966ae1019eULL},
      {0, 7, 8, 1114, 0x295b88e72ba4ae31ULL},
      {0, 8, 0, 1366, 0x4af2db627b0158a4ULL},
      {0, 8, 1, 1366, 0x4af2db627b0158a4ULL},
      {0, 8, 8, 1366, 0x4af2db627b0158a4ULL},
      {1, 2, 0, 174, 0x146ea58c37aeb48aULL},
      {1, 2, 1, 166, 0x3ebd658dfac4f1c2ULL},
      {1, 2, 8, 120, 0x71d93030ccb5c35dULL},
      {1, 3, 0, 380, 0xf3cbf587261bea55ULL},
      {1, 3, 1, 380, 0xf3cbf587261bea55ULL},
      {1, 3, 8, 380, 0xf3cbf587261bea55ULL},
      {1, 4, 0, 492, 0xd996c8ff957f4125ULL},
      {1, 4, 1, 448, 0x3cb4d86a54d7da81ULL},
      {1, 4, 8, 340, 0x353923337c3f7a8dULL},
      {1, 7, 0, 632, 0xbf90ec16f84e6104ULL},
      {1, 7, 1, 632, 0xbf90ec16f84e6104ULL},
      {1, 7, 8, 632, 0xbf90ec16f84e6104ULL},
      {1, 8, 0, 640, 0x6860bb0a31b8f910ULL},
      {1, 8, 1, 598, 0xd53e4eb18f884e26ULL},
      {1, 8, 8, 324, 0x2c52f62915063dc8ULL},
  };
  for (const Golden& g : golden) {
    const Partition part = partition_vertices(
        graphs[g.graph], g.shards, g.sweeps);
    EXPECT_EQ(part.stats.cut_arcs, g.cut_arcs)
        << "graph " << g.graph << " k " << g.shards << " sweeps "
        << g.sweeps;
    EXPECT_EQ(partition_digest(part), g.digest)
        << "graph " << g.graph << " k " << g.shards << " sweeps "
        << g.sweeps;
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
  const Partition legacy = partition_vertices(g, 4);
  for (const std::int32_t eps : {-1, 0}) {
    options.balance_eps = eps;
    EXPECT_EQ(partition_vertices(g, options).shard_of, legacy.shard_of);
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
