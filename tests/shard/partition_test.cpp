// Partitioner contract: deterministic, covering, balanced, with an
// exact cut count — everything the sharded plan phase and fig_shard's
// cut columns assume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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

// --- Balance band (ε) and flow-based refinement -----------------------

Digraph transit_stub_overlay(std::int32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return topology::transit_stub(topology::transit_stub_options_for_size(n),
                                rng);
}

/// rows x cols 4-neighbor grid, arcs both ways — the classic jagged-
/// boundary victim: greedy local moves plateau while a min cut can
/// straighten whole boundary segments at once.
Digraph grid_overlay(std::int32_t rows, std::int32_t cols) {
  Digraph g(rows * cols);
  const auto at = [cols](std::int32_t r, std::int32_t c) {
    return r * cols + c;
  };
  for (std::int32_t r = 0; r < rows; ++r)
    for (std::int32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        g.add_arc(at(r, c), at(r, c + 1), 1);
        g.add_arc(at(r, c + 1), at(r, c), 1);
      }
      if (r + 1 < rows) {
        g.add_arc(at(r, c), at(r + 1, c), 1);
        g.add_arc(at(r + 1, c), at(r, c), 1);
      }
    }
  g.finalize();
  return g;
}

/// Bidirectional ring with a few long chords: the optimal k-way cut is
/// k boundary pairs, easy to state and hard for a frozen greedy sweep.
Digraph ring_overlay(std::int32_t n) {
  Digraph g(n);
  for (std::int32_t v = 0; v < n; ++v) {
    const std::int32_t w = (v + 1) % n;
    g.add_arc(v, w, 1);
    g.add_arc(w, v, 1);
  }
  for (std::int32_t v = 0; v < n; v += n / 4) {
    const std::int32_t w = (v + n / 3) % n;
    g.add_arc(v, w, 1);
    g.add_arc(w, v, 1);
  }
  g.finalize();
  return g;
}

void expect_valid_partition(const Digraph& g, const Partition& part,
                            std::int32_t shards, std::int64_t lo_band,
                            std::int64_t hi_band) {
  ASSERT_EQ(part.num_shards, shards);
  ASSERT_EQ(part.shard_of.size(), static_cast<std::size_t>(g.num_vertices()));
  for (std::int32_t s : part.shard_of) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, shards);
  }
  for (std::int64_t size : class_sizes(part)) {
    EXPECT_GE(size, lo_band);
    EXPECT_LE(size, hi_band);
  }
}

PartitionOptions flow_options(std::int32_t shards, std::int32_t eps,
                              bool flow) {
  PartitionOptions options;
  options.num_shards = shards;
  options.balance_eps = eps;
  options.flow_refine = flow;
  return options;
}

TEST(ShardPartitionFlow, NeverWorseThanGreedyOnStructuredTopologies) {
  // Adoption requires a strict pair-cut decrease, so flow <= greedy is
  // a guarantee, not a tendency — checked across topology families,
  // shard counts, and both band widths.
  const Digraph topologies[] = {transit_stub_overlay(120, 5),
                                grid_overlay(12, 12), ring_overlay(96)};
  for (std::size_t i = 0; i < std::size(topologies); ++i) {
    const Digraph& g = topologies[i];
    for (std::int32_t shards : {3, 4, 7}) {
      for (std::int32_t eps : {0, 10}) {
        const Partition greedy =
            partition_vertices(g, flow_options(shards, eps, false));
        const Partition flow =
            partition_vertices(g, flow_options(shards, eps, true));
        EXPECT_LE(flow.stats.cut_arcs, greedy.stats.cut_arcs)
            << "topology " << i << " shards " << shards << " eps " << eps;
        const std::int64_t lo = g.num_vertices() / shards;
        const std::int64_t hi = (g.num_vertices() + shards - 1) / shards;
        const std::int64_t slack = eps * lo / 100;
        expect_valid_partition(g, flow, shards,
                               std::max<std::int64_t>(1, lo - slack),
                               hi + slack);
      }
    }
  }
}

TEST(ShardPartitionFlow, StrictlyBeatsGreedyOnPinnedConfigurations) {
  // The guarantee above is vacuous if the flow stage never fires; pin
  // configurations where it must find a strictly better cut.
  {
    // Transit-stub at 4 shards: greedy leaves stub domains straddling
    // the boundary that a min cut peels off whole.
    const Digraph g = transit_stub_overlay(120, 5);
    const Partition greedy =
        partition_vertices(g, flow_options(4, 10, false));
    const Partition flow = partition_vertices(g, flow_options(4, 10, true));
    EXPECT_LT(flow.stats.cut_arcs, greedy.stats.cut_arcs);
  }
  {
    // Grid at 7 shards: the min cut straightens greedy's jagged block
    // boundaries.
    const Digraph g = grid_overlay(12, 12);
    const Partition greedy =
        partition_vertices(g, flow_options(7, 10, false));
    const Partition flow = partition_vertices(g, flow_options(7, 10, true));
    EXPECT_LT(flow.stats.cut_arcs, greedy.stats.cut_arcs);
  }
  {
    // Even the exact band can win through offsetting swaps: at 2 shards
    // on the transit-stub overlay the flow stage finds the (tiny)
    // stub-edge separator greedy cannot reach move-by-move.
    const Digraph g = transit_stub_overlay(120, 5);
    const Partition greedy =
        partition_vertices(g, flow_options(2, 0, false));
    const Partition flow = partition_vertices(g, flow_options(2, 0, true));
    EXPECT_LT(flow.stats.cut_arcs, greedy.stats.cut_arcs);
    // Swaps kept the exact band (the generator approximates the
    // requested size, so derive it).
    EXPECT_EQ(flow.stats.min_owned, g.num_vertices() / 2);
    EXPECT_EQ(flow.stats.max_owned, (g.num_vertices() + 1) / 2);
  }
}

TEST(ShardPartitionFlow, CutAndGhostTablesStayConsistent) {
  // The flow stage moves labels pair by pair; the final count must
  // still be exact.
  const Digraph g = transit_stub_overlay(120, 5);
  const Partition part = partition_vertices(g, flow_options(4, 10, true));
  EXPECT_EQ(part.stats.cut_arcs, crossing_arcs(g, part));
}

TEST(ShardPartitionFlow, DeterministicAcrossCalls) {
  const Digraph g = transit_stub_overlay(120, 5);
  const Partition a = partition_vertices(g, flow_options(4, 10, true));
  const Partition b = partition_vertices(g, flow_options(4, 10, true));
  EXPECT_EQ(a.shard_of, b.shard_of);
}

TEST(ShardPartitionFlow, DefaultOptionsReproduceTheLegacyPartition) {
  const Digraph g = overlay(60, 42);
  const Partition legacy = partition_vertices(g, 4);
  // Explicit exact band, flow off.
  EXPECT_EQ(partition_vertices(g, flow_options(4, 0, false)).shard_of,
            legacy.shard_of);
  // -1 without OCD_SHARD_BALANCE_EPS in the environment resolves to 0.
  unsetenv("OCD_SHARD_BALANCE_EPS");
  EXPECT_EQ(partition_vertices(g, flow_options(4, -1, false)).shard_of,
            legacy.shard_of);
}

TEST(ShardPartitionGreedyBand, RefinementUnfreezesWhenShardsDivideN) {
  // k | n regression: the exact band pins every class size to n/k, so
  // no single move can stay balanced and the historical greedy sweep
  // was a guaranteed no-op.  With any slack the sweep must both move
  // something and strictly improve the cut on this pinned overlay.
  const Digraph g = overlay(120, 8);  // 120 = 4 * 30
  const Partition frozen_raw = partition_vertices(g, flow_options(4, 0, false));
  {
    PartitionOptions no_sweeps = flow_options(4, 0, false);
    no_sweeps.refinement_sweeps = 0;
    const Partition raw = partition_vertices(g, no_sweeps);
    // Frozen: with the exact band and k | n the sweep changed nothing.
    EXPECT_EQ(frozen_raw.shard_of, raw.shard_of);
  }
  const Partition relaxed = partition_vertices(g, flow_options(4, 10, false));
  EXPECT_LT(relaxed.stats.cut_arcs, frozen_raw.stats.cut_arcs);
  // Slack is spent, but only inside the advertised band.
  const std::int64_t slack = 10 * 30 / 100;
  EXPECT_GE(relaxed.stats.min_owned, 30 - slack);
  EXPECT_LE(relaxed.stats.max_owned, 30 + slack);
}

TEST(ShardPartitionBalanceEps, ResolvesRequestsAndEnvironment) {
  EXPECT_EQ(resolve_balance_eps(0), 0);
  EXPECT_EQ(resolve_balance_eps(5), 5);
  EXPECT_EQ(resolve_balance_eps(100), 100);
  EXPECT_THROW(resolve_balance_eps(101), Error);
  EXPECT_THROW(resolve_balance_eps(-2), Error);

  unsetenv("OCD_SHARD_BALANCE_EPS");
  EXPECT_EQ(resolve_balance_eps(-1), 0);
  setenv("OCD_SHARD_BALANCE_EPS", "15", 1);
  EXPECT_EQ(resolve_balance_eps(-1), 15);
  // An explicit request wins over the environment.
  EXPECT_EQ(resolve_balance_eps(3), 3);
  setenv("OCD_SHARD_BALANCE_EPS", "0", 1);
  EXPECT_EQ(resolve_balance_eps(-1), 0);
  setenv("OCD_SHARD_BALANCE_EPS", "101", 1);
  EXPECT_THROW(resolve_balance_eps(-1), Error);
  setenv("OCD_SHARD_BALANCE_EPS", "ten", 1);
  EXPECT_THROW(resolve_balance_eps(-1), Error);
  unsetenv("OCD_SHARD_BALANCE_EPS");
}

}  // namespace
}  // namespace ocd::shard
