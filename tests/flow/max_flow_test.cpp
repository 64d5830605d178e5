// The s-t max-flow core (ocd/flow/max_flow.hpp) underneath the shard
// partitioner's flow refinement (and, per ROADMAP item 4, future
// time-expanded flow planners).  Pinned here: exact values on known
// networks, min-cut duality on both canonical cuts, Dinic == scaling
// on every network, and a differential fuzz of both against a naive
// BFS augmenting-path (Edmonds-Karp) reference at small sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ocd/flow/max_flow.hpp"
#include "ocd/util/error.hpp"
#include "ocd/util/rng.hpp"

namespace ocd::flow {
namespace {

using Flow = MaxFlow::Flow;

// Naive Edmonds-Karp over an adjacency matrix of residual capacities:
// the slowest, most obviously correct formulation — the differential
// anchor for both production algorithms.
class NaiveFlow {
 public:
  explicit NaiveFlow(std::int32_t n)
      : n_(n), cap_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                    0) {}

  void add_edge(std::int32_t from, std::int32_t to, Flow capacity,
                Flow reverse_capacity = 0) {
    at(from, to) += capacity;
    at(to, from) += reverse_capacity;
  }

  Flow run(std::int32_t s, std::int32_t t) {
    Flow total = 0;
    std::vector<std::int32_t> parent(static_cast<std::size_t>(n_));
    while (true) {
      std::fill(parent.begin(), parent.end(), -1);
      parent[static_cast<std::size_t>(s)] = s;
      std::vector<std::int32_t> queue{s};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::int32_t v = queue[head];
        for (std::int32_t w = 0; w < n_; ++w) {
          if (at(v, w) > 0 && parent[static_cast<std::size_t>(w)] < 0) {
            parent[static_cast<std::size_t>(w)] = v;
            queue.push_back(w);
          }
        }
      }
      if (parent[static_cast<std::size_t>(t)] < 0) return total;
      Flow bottleneck = MaxFlow::kInfinity;
      for (std::int32_t v = t; v != s;
           v = parent[static_cast<std::size_t>(v)])
        bottleneck = std::min(bottleneck,
                              at(parent[static_cast<std::size_t>(v)], v));
      for (std::int32_t v = t; v != s;
           v = parent[static_cast<std::size_t>(v)]) {
        at(parent[static_cast<std::size_t>(v)], v) -= bottleneck;
        at(v, parent[static_cast<std::size_t>(v)]) += bottleneck;
      }
      total += bottleneck;
    }
  }

 private:
  Flow& at(std::int32_t i, std::int32_t j) {
    return cap_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                static_cast<std::size_t>(j)];
  }

  std::int32_t n_;
  std::vector<Flow> cap_;
};

TEST(MaxFlow, SingleEdge) {
  MaxFlow mf;
  mf.reset(2);
  const std::int32_t e = mf.add_edge(0, 1, 7);
  EXPECT_EQ(mf.run(0, 1), 7);
  EXPECT_EQ(mf.flow(e), 7);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow mf;
  mf.reset(4);
  mf.add_edge(0, 1, 5);
  mf.add_edge(2, 3, 5);
  EXPECT_EQ(mf.run(0, 3), 0);
  EXPECT_TRUE(mf.in_source_side(0));
  EXPECT_TRUE(mf.in_source_side(1));
  EXPECT_FALSE(mf.in_source_side(2));
  EXPECT_FALSE(mf.in_source_side(3));
}

// The CLRS Figure 26.6 network: max flow 23.
TEST(MaxFlow, ClrsNetwork) {
  MaxFlow mf;
  mf.reset(6);
  mf.add_edge(0, 1, 16);
  mf.add_edge(0, 2, 13);
  mf.add_edge(1, 3, 12);
  mf.add_edge(2, 1, 4);
  mf.add_edge(2, 4, 14);
  mf.add_edge(3, 2, 9);
  mf.add_edge(3, 5, 20);
  mf.add_edge(4, 3, 7);
  mf.add_edge(4, 5, 4);
  EXPECT_EQ(mf.run(0, 5), 23);
}

TEST(MaxFlow, SerialBottleneck) {
  MaxFlow mf;
  mf.reset(4);
  mf.add_edge(0, 1, 100);
  mf.add_edge(1, 2, 3);
  mf.add_edge(2, 3, 100);
  EXPECT_EQ(mf.run(0, 3), 3);
  // Source-reachable cut separates exactly at the bottleneck.
  EXPECT_TRUE(mf.in_source_side(0));
  EXPECT_TRUE(mf.in_source_side(1));
  EXPECT_FALSE(mf.in_source_side(2));
  EXPECT_FALSE(mf.in_source_side(3));
}

TEST(MaxFlow, UndirectedEdgesCarryFlowEitherWay) {
  MaxFlow mf;
  mf.reset(3);
  mf.add_edge(1, 0, 2, 2);  // undirected, added "backwards"
  mf.add_edge(1, 2, 2, 2);
  EXPECT_EQ(mf.run(0, 2), 2);
  EXPECT_EQ(mf.flow(0), -2);  // negative: pushed against edge 0's arrow
  EXPECT_EQ(mf.flow(1), 2);
}

TEST(MaxFlow, SecondRunContinuesAndReloadRestarts) {
  MaxFlow mf;
  mf.reset(2);
  mf.add_edge(0, 1, 9);
  EXPECT_EQ(mf.run(0, 1), 9);
  EXPECT_EQ(mf.run(0, 1), 0);  // residual network is already maxed
  mf.reload();
  EXPECT_EQ(mf.run(0, 1), 9);
}

TEST(MaxFlow, ResetReusesTheSolverAcrossShapes) {
  MaxFlow mf;
  mf.reset(6);
  mf.add_edge(0, 5, 4);
  EXPECT_EQ(mf.run(0, 5), 4);
  mf.reset(3);
  EXPECT_EQ(mf.num_vertices(), 3);
  EXPECT_EQ(mf.num_edges(), 0);
  mf.add_edge(0, 1, 1);
  mf.add_edge(1, 2, 1);
  EXPECT_EQ(mf.run(0, 2), 1);
}

TEST(MaxFlow, ScalingMatchesDinicOnLargeCapacities) {
  // The classic scaling showcase: two fat paths bridged by a unit edge
  // that plain augmenting paths are tempted to cross back and forth.
  MaxFlow mf;
  mf.reset(4);
  mf.add_edge(0, 1, 1'000'000'000);
  mf.add_edge(0, 2, 1'000'000'000);
  mf.add_edge(1, 2, 1);
  mf.add_edge(1, 3, 1'000'000'000);
  mf.add_edge(2, 3, 1'000'000'000);
  EXPECT_EQ(mf.run(0, 3), 2'000'000'000);
  mf.reload();
  EXPECT_EQ(mf.run_scaling(0, 3), 2'000'000'000);
}

TEST(MaxFlow, RejectsInvalidArguments) {
  MaxFlow mf;
  mf.reset(2);
  mf.add_edge(0, 1, 1);
  EXPECT_THROW(mf.run(0, 0), ContractViolation);
  EXPECT_THROW(mf.run(0, 2), ContractViolation);
  EXPECT_THROW(mf.add_edge(0, 2, 1), ContractViolation);
  EXPECT_THROW(mf.add_edge(0, 1, -1), ContractViolation);
}

// Build the same random network in all three solvers.  Mixes plain
// directed, undirected, and parallel edges, with both tiny and large
// capacities so the scaling rounds actually engage.
void build_random(Rng& rng, std::int32_t n, std::int32_t m, MaxFlow& mf,
                  NaiveFlow& naive) {
  mf.reset(n);
  for (std::int32_t e = 0; e < m; ++e) {
    const auto from = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(n)));
    auto to = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(n)));
    if (to == from) to = (to + 1) % n;
    const Flow cap = rng.chance(0.3)
                         ? rng.uniform_int(1, 1'000'000)
                         : rng.uniform_int(0, 4);
    const Flow rev = rng.chance(0.5) ? 0 : rng.uniform_int(0, 4);
    mf.add_edge(from, to, cap, rev);
    naive.add_edge(from, to, cap, rev);
  }
}

TEST(MaxFlow, DifferentialFuzzAgainstNaiveReference) {
  Rng rng(0xf10f10);
  for (std::int32_t round = 0; round < 200; ++round) {
    const auto n = static_cast<std::int32_t>(2 + rng.below(9));
    const auto m = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(3 * n)));
    MaxFlow mf;
    NaiveFlow naive(n);
    build_random(rng, n, m, mf, naive);
    const std::int32_t s = 0;
    const auto t = static_cast<std::int32_t>(1 + rng.below(
        static_cast<std::uint64_t>(n - 1)));
    const Flow expected = naive.run(s, t);
    ASSERT_EQ(mf.run(s, t), expected) << "round " << round;
    mf.reload();
    ASSERT_EQ(mf.run_scaling(s, t), expected) << "round " << round;
  }
}

// Max-flow min-cut duality, checked structurally on random networks:
// both canonical cuts must (a) separate s from t, and (b) have crossing
// capacity exactly equal to the flow value.
TEST(MaxFlow, MinCutSidesAreDualToTheFlowValue) {
  Rng rng(0xc07c07);
  for (std::int32_t round = 0; round < 100; ++round) {
    const auto n = static_cast<std::int32_t>(3 + rng.below(8));
    const auto m = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(4 * n)));
    std::vector<std::int32_t> from(static_cast<std::size_t>(m));
    std::vector<std::int32_t> to(static_cast<std::size_t>(m));
    std::vector<Flow> cap(static_cast<std::size_t>(m));
    std::vector<Flow> rev(static_cast<std::size_t>(m));
    MaxFlow mf;
    mf.reset(n);
    for (std::int32_t e = 0; e < m; ++e) {
      const auto i = static_cast<std::size_t>(e);
      from[i] = static_cast<std::int32_t>(rng.below(
          static_cast<std::uint64_t>(n)));
      to[i] = static_cast<std::int32_t>(rng.below(
          static_cast<std::uint64_t>(n)));
      if (to[i] == from[i]) to[i] = (to[i] + 1) % n;
      cap[i] = rng.uniform_int(0, 9);
      rev[i] = rng.chance(0.5) ? 0 : rng.uniform_int(0, 9);
      mf.add_edge(from[i], to[i], cap[i], rev[i]);
    }
    const std::int32_t s = 0;
    const std::int32_t t = n - 1;
    const Flow value = mf.run(s, t);
    mf.compute_sink_side();
    ASSERT_TRUE(mf.in_source_side(s));
    ASSERT_FALSE(mf.in_source_side(t));
    ASSERT_FALSE(mf.in_sink_side(s));
    ASSERT_TRUE(mf.in_sink_side(t));
    Flow source_cut = 0;
    Flow sink_cut = 0;
    for (std::int32_t e = 0; e < m; ++e) {
      const auto i = static_cast<std::size_t>(e);
      // An edge contributes its forward capacity when it crosses the
      // cut forward, its reverse capacity when it crosses backward.
      if (mf.in_source_side(from[i]) && !mf.in_source_side(to[i]))
        source_cut += cap[i];
      if (mf.in_source_side(to[i]) && !mf.in_source_side(from[i]))
        source_cut += rev[i];
      if (!mf.in_sink_side(from[i]) && mf.in_sink_side(to[i]))
        sink_cut += cap[i];
      if (!mf.in_sink_side(to[i]) && mf.in_sink_side(from[i]))
        sink_cut += rev[i];
    }
    ASSERT_EQ(source_cut, value) << "round " << round;
    ASSERT_EQ(sink_cut, value) << "round " << round;
  }
}

// Flow conservation at every interior vertex, and capacity obedience on
// every edge — the per-edge flow() accessor must describe a valid flow.
TEST(MaxFlow, PerEdgeFlowsFormAValidFlow) {
  Rng rng(0xbeef);
  for (std::int32_t round = 0; round < 100; ++round) {
    const auto n = static_cast<std::int32_t>(3 + rng.below(8));
    const auto m = static_cast<std::int32_t>(rng.below(
        static_cast<std::uint64_t>(4 * n)));
    MaxFlow mf;
    std::vector<std::int32_t> from(static_cast<std::size_t>(m));
    std::vector<std::int32_t> to(static_cast<std::size_t>(m));
    std::vector<Flow> cap(static_cast<std::size_t>(m));
    std::vector<Flow> rev(static_cast<std::size_t>(m));
    mf.reset(n);
    for (std::int32_t e = 0; e < m; ++e) {
      const auto i = static_cast<std::size_t>(e);
      from[i] = static_cast<std::int32_t>(rng.below(
          static_cast<std::uint64_t>(n)));
      to[i] = static_cast<std::int32_t>(rng.below(
          static_cast<std::uint64_t>(n)));
      if (to[i] == from[i]) to[i] = (to[i] + 1) % n;
      cap[i] = rng.uniform_int(0, 9);
      rev[i] = rng.uniform_int(0, 9);
      mf.add_edge(from[i], to[i], cap[i], rev[i]);
    }
    const std::int32_t s = 0;
    const std::int32_t t = n - 1;
    const Flow value = mf.run(s, t);
    std::vector<Flow> net(static_cast<std::size_t>(n), 0);
    for (std::int32_t e = 0; e < m; ++e) {
      const auto i = static_cast<std::size_t>(e);
      const Flow f = mf.flow(e);
      ASSERT_LE(f, cap[i]);
      ASSERT_GE(f, -rev[i]);  // negative flow rides the reverse capacity
      net[static_cast<std::size_t>(from[i])] -= f;
      net[static_cast<std::size_t>(to[i])] += f;
    }
    ASSERT_EQ(net[static_cast<std::size_t>(s)], -value);
    ASSERT_EQ(net[static_cast<std::size_t>(t)], value);
    for (std::int32_t v = 1; v < n - 1; ++v)
      ASSERT_EQ(net[static_cast<std::size_t>(v)], 0) << "vertex " << v;
  }
}

}  // namespace
}  // namespace ocd::flow
